package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindCounter:   "counter",
		KindGauge:     "gauge",
		KindHistogram: "histogram",
		Kind(42):      "Kind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestName(t *testing.T) {
	if got := Name("requests"); got != "requests" {
		t.Errorf("unlabeled name = %q", got)
	}
	got := Name("resp_ms", Label{"policy", "rr"}, Label{"disk", "3"})
	want := `resp_ms{disk="3",policy="rr"}`
	if got != want {
		t.Errorf("labeled name = %q, want %q (keys must sort)", got, want)
	}
	got = Name("m", Label{"v", "a\"b\\c\nd"})
	want = `m{v="a\"b\\c\nd"}`
	if got != want {
		t.Errorf("escaped name = %q, want %q", got, want)
	}
}

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Errorf("gauge = %g, want 1.5", g.Value())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(HistogramOpts{})
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		h.Record(v)
	}
	if h.Count() != 4 || h.Sum() != 10 || h.Min() != 1 || h.Max() != 4 {
		t.Fatalf("count/sum/min/max = %d/%g/%g/%g", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	if h.Mean() != 2.5 {
		t.Errorf("mean = %g, want 2.5", h.Mean())
	}
}

// TestHistogramQuantileAccuracy checks the relative-error bound of the
// bucket estimator against exact order statistics.
func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram(HistogramOpts{SubBits: 5})
	var vals []float64
	v := 0.001
	for i := 0; i < 5000; i++ {
		vals = append(vals, v)
		h.Record(v)
		v *= 1.0037 // spans many octaves
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
		exact := vals[int(math.Ceil(q*float64(len(vals))))-1]
		got := h.Quantile(q)
		if got < exact {
			t.Errorf("q=%g: estimate %g below exact %g", q, got, exact)
		}
		if got > exact*(1+1.0/32)+1e-12 {
			t.Errorf("q=%g: estimate %g exceeds error bound over exact %g", q, got, exact)
		}
	}
}

func TestHistogramQuantileClampsToMax(t *testing.T) {
	h := NewHistogram(HistogramOpts{})
	h.Record(7)
	for _, q := range []float64{0.5, 1, 2} {
		if got := h.Quantile(q); got != 7 {
			t.Errorf("q=%g over single value = %g, want exact max 7", q, got)
		}
	}
}

func TestHistogramUnderOverflow(t *testing.T) {
	h := NewHistogram(HistogramOpts{SubBits: 2, MinExp: 0, MaxExp: 4})
	h.Record(0)     // underflow
	h.Record(-3)    // underflow
	h.Record(0.001) // underflow
	h.Record(100)   // overflow (≥ 2^4)
	h.Record(math.Inf(1))
	if h.buckets[0] != 3 {
		t.Errorf("underflow bucket = %d, want 3", h.buckets[0])
	}
	if h.buckets[len(h.buckets)-1] != 2 {
		t.Errorf("overflow bucket = %d, want 2", h.buckets[len(h.buckets)-1])
	}
	// The 0.5 quantile lands in the underflow bucket: reported as its
	// upper bound 2^0.
	if got := h.Quantile(0.5); got != 1 {
		t.Errorf("underflow quantile = %g, want 1", got)
	}
	// The top quantile lands in the overflow bucket: reported as max.
	if got := h.Quantile(1); !math.IsInf(got, 1) {
		t.Errorf("overflow quantile = %g, want +Inf (observed max)", got)
	}
}

// TestBucketBoundariesExact verifies that every recorded value falls
// strictly below its bucket's reconstructed upper boundary and at or
// above the previous one — the exactness contract.
func TestBucketBoundariesExact(t *testing.T) {
	h := NewHistogram(HistogramOpts{SubBits: 3, MinExp: -4, MaxExp: 6})
	vals := []float64{0.0625, 0.1, 0.99, 1, 1.125, 1.1250001, 33.3, 63.999}
	for _, v := range vals {
		i := h.index(v)
		if i == 0 || i == len(h.buckets)-1 {
			t.Fatalf("value %g unexpectedly out of range (bucket %d)", v, i)
		}
		lo := h.upperBound(i - 1)
		hi := h.upperBound(i)
		if !(lo <= v && v < hi) {
			t.Errorf("value %g not in bucket %d boundaries [%g, %g)", v, i, lo, hi)
		}
		if hi <= lo {
			t.Errorf("bucket %d boundaries not increasing: [%g, %g)", i, lo, hi)
		}
	}
	// Exact powers of two are bucket lower boundaries.
	if got := h.upperBound(h.index(1) - 1); got != 1 {
		t.Errorf("lower boundary of 1.0's bucket = %g, want exactly 1", got)
	}
}

func TestHistogramOptsClamping(t *testing.T) {
	cases := []struct {
		in   HistogramOpts
		want HistogramOpts
	}{
		{HistogramOpts{}, HistogramOpts{SubBits: 5, MinExp: -10, MaxExp: 30}},
		{HistogramOpts{SubBits: -1, MinExp: 1, MaxExp: 2}, HistogramOpts{SubBits: 1, MinExp: 1, MaxExp: 2}},
		{HistogramOpts{SubBits: 99, MinExp: -2000, MaxExp: 2000}, HistogramOpts{SubBits: 8, MinExp: -1022, MaxExp: 1023}},
		{HistogramOpts{SubBits: 4, MinExp: 5, MaxExp: 5}, HistogramOpts{SubBits: 4, MinExp: 5, MaxExp: 6}},
	}
	for _, c := range cases {
		if got := c.in.withDefaults(); got != c.want {
			t.Errorf("withDefaults(%+v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(HistogramOpts{})
	b := NewHistogram(HistogramOpts{})
	for _, v := range []float64{1, 2, 3} {
		a.Record(v)
	}
	for _, v := range []float64{0.5, 10} {
		b.Record(v)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 5 || a.Sum() != 16.5 || a.Min() != 0.5 || a.Max() != 10 {
		t.Errorf("merged count/sum/min/max = %d/%g/%g/%g", a.Count(), a.Sum(), a.Min(), a.Max())
	}
	// Merging an empty histogram is a no-op.
	if err := a.Merge(NewHistogram(HistogramOpts{})); err != nil || a.Count() != 5 {
		t.Errorf("empty merge changed state (err %v, count %d)", err, a.Count())
	}
	// Merging into an empty histogram adopts min/max.
	c := NewHistogram(HistogramOpts{})
	if err := c.Merge(a); err != nil || c.Min() != 0.5 || c.Max() != 10 {
		t.Errorf("merge into empty: err %v min %g max %g", err, c.Min(), c.Max())
	}
	// Layout mismatch is an error.
	if err := a.Merge(NewHistogram(HistogramOpts{SubBits: 2, MinExp: 0, MaxExp: 4})); err == nil {
		t.Error("incompatible merge did not error")
	}
}

// TestHistogramMergeEmpty: merging a window with no requests, as the
// driver does for an idle direction, changes nothing.
func TestHistogramMergeEmpty(t *testing.T) {
	a := NewHistogram(msOpts)
	a.Record(7.5)
	if err := a.Merge(NewHistogram(msOpts)); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 1 || a.Sum() != 7.5 || a.Min() != 7.5 || a.Max() != 7.5 {
		t.Errorf("after merging an empty histogram: %d samples, sum %v, range [%v, %v]", a.Count(), a.Sum(), a.Min(), a.Max())
	}
}

// TestHistogramMergeLeavesSource: in the service-time layout a merge
// keeps the whole-millisecond counts, and leaves its source as it was
// when the merge is recorded into, as the driver's per-window merges
// need.
func TestHistogramMergeLeavesSource(t *testing.T) {
	a, b := NewHistogram(msOpts), NewHistogram(msOpts)
	a.Record(10)
	b.Record(20)
	b.Record(30)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 3 || math.Abs(a.Mean()-20) > 1e-12 || a.CountBelow(25) != 2 {
		t.Errorf("after merge: count=%d mean=%v below 25 ms=%d", a.Count(), a.Mean(), a.CountBelow(25))
	}
	fresh := NewHistogram(msOpts)
	if err := fresh.Merge(b); err != nil {
		t.Fatal(err)
	}
	fresh.Record(40)
	if b.Count() != 2 || b.Sum() != 50 || fresh.Count() != 3 {
		t.Errorf("source %d/%v, merged %d after recording into the merge", b.Count(), b.Sum(), fresh.Count())
	}
}

// TestHistogramMeanWithinRange: the mean, kept at full resolution,
// always lies within the recorded samples' range.
func TestHistogramMeanWithinRange(t *testing.T) {
	f := func(raw []uint16) bool {
		h := NewHistogram(msOpts)
		if len(raw) == 0 {
			return h.Mean() == 0
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			v := float64(r) / 16
			h.Record(v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		m := h.Mean()
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Inc()
	if r.Counter("reqs") != c {
		t.Error("re-registering a counter should return the same instance")
	}
	g := r.Gauge("depth")
	g.Set(3)
	if r.Gauge("depth") != g {
		t.Error("re-registering a gauge should return the same instance")
	}
	h := r.Histogram("lat", HistogramOpts{})
	h.Record(1)
	if r.Histogram("lat", HistogramOpts{SubBits: 2}) != h {
		t.Error("re-registering a histogram should return the same instance")
	}
	lifetime := int64(7)
	r.CounterFunc("fn_count", func() int64 { return lifetime })
	r.GaugeFunc("fn_gauge", func() float64 { return 0.25 })
	own := NewHistogram(HistogramOpts{})
	own.Record(2)
	own.Record(4)
	r.AdoptHistogram("adopted", own)
	if r.Histogram("adopted", HistogramOpts{}) != own {
		t.Error("an adopted histogram should be the one the registry returns")
	}

	s := r.Snapshot()
	wantNames := []string{"reqs", "depth", "lat", "fn_count", "fn_gauge", "adopted"}
	if len(s.Metrics) != len(wantNames) {
		t.Fatalf("snapshot has %d metrics, want %d", len(s.Metrics), len(wantNames))
	}
	for i, m := range s.Metrics {
		if m.Name != wantNames[i] {
			t.Errorf("metric %d = %s, want %s (registration order)", i, m.Name, wantNames[i])
		}
	}
	if s.Metrics[0].Value != 1 || s.Metrics[1].Value != 3 || s.Metrics[3].Value != 7 || s.Metrics[4].Value != 0.25 {
		t.Errorf("snapshot values = %v", s.Metrics)
	}
	if s.Metrics[2].Hist == nil || s.Metrics[2].Hist.Count != 1 {
		t.Errorf("histogram snapshot = %+v", s.Metrics[2].Hist)
	}
	if s.Metrics[5].Hist == nil || s.Metrics[5].Hist.Count != 2 {
		t.Errorf("adopted histogram snapshot = %+v", s.Metrics[5].Hist)
	}
}

// Each visits every metric in registration order and reads a
// func-backed value only when asked to.
func TestRegistryEachReadsLazily(t *testing.T) {
	r := NewRegistry()
	reads := 0
	r.GaugeFunc("g", func() float64 { reads++; return 1.5 })
	r.Histogram("h", HistogramOpts{}).Record(2)
	r.Counter("c", Label{"disk", "0"}).Add(3)
	var names []string
	r.Each(func(m Metric) { names = append(names, m.Name()+":"+m.Kind().String()) })
	if reads != 0 {
		t.Errorf("visiting names read the gauge %d times", reads)
	}
	want := []string{"g:gauge", "h:histogram", `c{disk="0"}:counter`}
	if len(names) != len(want) {
		t.Fatalf("visited %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("visit %d = %s, want %s", i, names[i], want[i])
		}
	}
	var values []float64
	r.Each(func(m Metric) { values = append(values, m.Value()) })
	if reads != 1 || values[0] != 1.5 || values[1] != 0 || values[2] != 3 {
		t.Errorf("values %v after %d reads, want [1.5 0 3] after 1", values, reads)
	}
}

func TestRegistryLabels(t *testing.T) {
	r := NewRegistry()
	c0 := r.Counter("faults", Label{"disk", "0"})
	c1 := r.Counter("faults", Label{"disk", "1"})
	if c0 == c1 {
		t.Fatal("differently labeled metrics must be distinct")
	}
	c0.Inc()
	s := r.Snapshot()
	if s.Metrics[0].Name != `faults{disk="0"}` || s.Metrics[1].Name != `faults{disk="1"}` {
		t.Errorf("labeled names = %s, %s", s.Metrics[0].Name, s.Metrics[1].Name)
	}
}

func TestRegistryPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("c")
	expectPanic("kind clash", func() { r.Gauge("c") })
	r.CounterFunc("cf", func() int64 { return 0 })
	expectPanic("counter over func", func() { r.Counter("cf") })
	expectPanic("CounterFunc re-register", func() { r.CounterFunc("cf", func() int64 { return 0 }) })
	r.GaugeFunc("gf", func() float64 { return 0 })
	expectPanic("gauge over func", func() { r.Gauge("gf") })
	r.Histogram("h", HistogramOpts{})
	expectPanic("AdoptHistogram re-register", func() { r.AdoptHistogram("h", NewHistogram(HistogramOpts{})) })
	expectPanic("GaugeFunc re-register", func() { r.GaugeFunc("gf", func() float64 { return 0 }) })
}

func TestSnapshotQuantileMatchesLive(t *testing.T) {
	h := NewHistogram(HistogramOpts{})
	v := 0.01
	for i := 0; i < 1000; i++ {
		h.Record(v)
		v *= 1.013
	}
	s := h.snapshot()
	if s.Mean() != h.Mean() {
		t.Errorf("snapshot mean %g != live mean %g", s.Mean(), h.Mean())
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
		if s.Quantile(q) != h.Quantile(q) {
			t.Errorf("q=%g: snapshot %g != live %g", q, s.Quantile(q), h.Quantile(q))
		}
	}
	empty := &HistSnap{}
	if empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Error("empty snapshot should report zeros")
	}
}
