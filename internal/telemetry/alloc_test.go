package telemetry

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// TestSamplerSteadyStateAllocs locks the sampler's steady state: a
// sample walks the registry and appends CSV bytes to a growing buffer,
// so after warmup the amortized allocation rate must be essentially
// zero (the buffer may still double capacity occasionally, hence the
// epsilon rather than an exact 0). Mirrors internal/sim/alloc_test.go.
func TestSamplerSteadyStateAllocs(t *testing.T) {
	c := NewCollector("job", Options{SamplePeriodMS: 1})
	reg := c.Metrics()
	v := 0.0
	reg.GaugeFunc("qd", func() float64 { return v }, metrics.Label{Key: "disk", Value: "0"})
	reg.CounterFunc("hits", func() int64 { return int64(2 * v) })
	reg.Histogram("lat_ms", metrics.HistogramOpts{}).Record(1)
	reg.GaugeFunc("dead", func() float64 { return 1 })
	c.StartSampler(sim.NewEngine())
	// Warm the CSV buffer well past the measured window.
	now := 0.0
	for i := 0; i < 20000; i++ {
		now++
		c.sample(now)
	}
	n := testing.AllocsPerRun(1000, func() {
		now++
		v += 0.5
		c.sample(now)
	})
	if n > 0.05 {
		t.Errorf("sampler steady state allocates %.3f/op, want ~0", n)
	}
}

// TestCollectorMetricsRecordAllocs locks the full metrics hot path as
// the stack uses it: histograms resolved from a collector's registry
// record with zero allocations.
func TestCollectorMetricsRecordAllocs(t *testing.T) {
	c := NewCollector("job", Options{Metrics: true})
	if !c.MetricsEnabled() {
		t.Fatal("Options.Metrics did not enable the registry")
	}
	h := c.Metrics().Histogram("driver_service_ms", metrics.HistogramOpts{})
	v := 0.3
	if n := testing.AllocsPerRun(2000, func() {
		h.Record(v)
		v *= 1.01
	}); n != 0 {
		t.Errorf("metrics record via collector allocates %.2f/op, want 0", n)
	}
}

// TestSpanCaptureSteadyStateAllocs keeps the span encoder's steady
// state amortized-zero too: AppendJSONL reuses the trace buffer.
func TestSpanCaptureSteadyStateAllocs(t *testing.T) {
	c := NewCollector("job", Options{Spans: true})
	e := &Event{Kind: KindSpan, Sector: 10, Count: 8, ArriveMS: 1, DispatchMS: 2, CompleteMS: 3}
	for i := 0; i < 50000; i++ {
		c.Event(e)
	}
	n := testing.AllocsPerRun(1000, func() {
		e.ArriveMS++
		c.Event(e)
	})
	if n > 0.05 {
		t.Errorf("span capture steady state allocates %.3f/op, want ~0", n)
	}
}
