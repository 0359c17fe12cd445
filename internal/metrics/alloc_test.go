package metrics

import "testing"

// TestRecordAllocs locks the hot-path contract: recording into a
// counter or a histogram allocates nothing, so the instrumented
// simulation keeps its allocs/event budget. Mirrors
// internal/sim/alloc_test.go.
func TestRecordAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", HistogramOpts{})
	v := 0.0007 // walks under/normal/overflow ranges as it grows
	if n := testing.AllocsPerRun(2000, func() {
		c.Add(2)
		h.Record(v)
		v *= 1.09
	}); n != 0 {
		t.Errorf("metric record paths allocate %.2f/op, want 0", n)
	}
}

// TestMergeQuantileAllocs keeps end-of-run fan-in cheap too: merging a
// histogram and reading quantiles allocates nothing.
func TestMergeQuantileAllocs(t *testing.T) {
	a := NewHistogram(HistogramOpts{})
	b := NewHistogram(HistogramOpts{})
	for v := 0.001; v < 1000; v *= 1.1 {
		a.Record(v)
		b.Record(v * 3)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		_ = a.Quantile(0.99)
	}); n != 0 {
		t.Errorf("merge+quantile allocates %.2f/op, want 0", n)
	}
}
