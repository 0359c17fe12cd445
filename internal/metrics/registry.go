package metrics

import "fmt"

// metricEntry is one registered metric. Counters and gauges are either
// instance-backed (Counter/Gauge) or func-backed (resolved lazily at
// snapshot time).
type metricEntry struct {
	name string
	kind Kind

	counter   *Counter
	counterFn func() int64

	gauge   *Gauge
	gaugeFn func() float64

	hist *Histogram
}

func (e *metricEntry) counterValue() int64 {
	if e.counterFn != nil {
		return e.counterFn()
	}
	return e.counter.v
}

func (e *metricEntry) gaugeValue() float64 {
	if e.gaugeFn != nil {
		return e.gaugeFn()
	}
	return e.gauge.v
}

// Registry holds a set of named metrics in registration order, which is
// also snapshot and export order — a deterministic order for free,
// because registration happens at fixed points in every run.
type Registry struct {
	order  []*metricEntry
	byName map[string]*metricEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metricEntry{}}
}

// entry returns the metric for the canonical name, creating it if new.
// A kind clash with an existing name is a programming error and panics,
// like prometheus.MustRegister.
func (r *Registry) entry(name string, kind Kind) (*metricEntry, bool) {
	if e, ok := r.byName[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, e.kind, kind))
		}
		return e, true
	}
	e := &metricEntry{name: name, kind: kind}
	r.order = append(r.order, e)
	r.byName[name] = e
	return e, false
}

// Counter returns the counter with the given name and labels, creating
// it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	e, ok := r.entry(Name(name, labels...), KindCounter)
	if !ok {
		e.counter = &Counter{}
	} else if e.counter == nil {
		panic("metrics: " + e.name + " is func-backed, cannot be requested as a Counter instance")
	}
	return e.counter
}

// Gauge returns the gauge with the given name and labels, creating it
// on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	e, ok := r.entry(Name(name, labels...), KindGauge)
	if !ok {
		e.gauge = &Gauge{}
	} else if e.gauge == nil {
		panic("metrics: " + e.name + " is func-backed, cannot be requested as a Gauge instance")
	}
	return e.gauge
}

// Histogram returns the histogram with the given name and labels,
// creating it with opts on first use (opts are ignored on later calls).
func (r *Registry) Histogram(name string, opts HistogramOpts, labels ...Label) *Histogram {
	e, ok := r.entry(Name(name, labels...), KindHistogram)
	if !ok {
		e.hist = NewHistogram(opts)
	}
	return e.hist
}

// CounterFunc registers a counter whose value is read from fn at
// snapshot time — the natural fit for layers that already keep lifetime
// counters (driver.Counters, cache.Stats) without touching their hot
// paths. The name must be unused.
func (r *Registry) CounterFunc(name string, fn func() int64, labels ...Label) {
	e, ok := r.entry(Name(name, labels...), KindCounter)
	if ok {
		panic("metrics: CounterFunc re-registers " + e.name)
	}
	e.counterFn = fn
}

// GaugeFunc registers a gauge whose value is read from fn at snapshot
// time. The name must be unused.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	e, ok := r.entry(Name(name, labels...), KindGauge)
	if ok {
		panic("metrics: GaugeFunc re-registers " + e.name)
	}
	e.gaugeFn = fn
}

// Metric is one registered metric as Each visits it: a handle onto the
// registry's entry, read in place.
type Metric struct{ e *metricEntry }

// Name returns the metric's canonical name, labels included.
func (m Metric) Name() string { return m.e.name }

// Kind returns the metric's kind.
func (m Metric) Kind() Kind { return m.e.kind }

// Value reads a counter or gauge now, calling a func-backed one's
// function; a histogram reads 0.
func (m Metric) Value() float64 {
	switch m.e.kind {
	case KindCounter:
		return float64(m.e.counterValue())
	case KindGauge:
		return m.e.gaugeValue()
	}
	return 0
}

// Each calls fn with every metric in registration order. It allocates
// nothing, and reads no value fn does not ask for, so a periodic reader
// that keeps one fn pays only for the values it reads.
func (r *Registry) Each(fn func(Metric)) {
	for _, e := range r.order {
		fn(Metric{e})
	}
}

// Snapshot renders every metric to pure data, in registration order.
// Func-backed metrics are evaluated now, so take the snapshot at a
// deterministic point — the end of a run.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{Metrics: make([]MetricSnap, 0, len(r.order))}
	r.Each(func(m Metric) {
		ms := MetricSnap{Name: m.Name(), Kind: m.Kind().String(), Value: m.Value()}
		if m.Kind() == KindHistogram {
			ms.Hist = m.e.hist.snapshot()
		}
		s.Metrics = append(s.Metrics, ms)
	})
	return s
}
