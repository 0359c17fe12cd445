package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/seek"
	"repro/internal/sim"
)

func TestTimeHistMean(t *testing.T) {
	h := NewTimeHist(100)
	for _, v := range []float64{1.25, 2.75, 6.0} {
		h.Add(v)
	}
	if got := h.MeanMS(); math.Abs(got-10.0/3) > 1e-12 {
		t.Errorf("MeanMS = %v, want %v", got, 10.0/3)
	}
	if h.Count() != 3 {
		t.Errorf("Count = %d", h.Count())
	}
}

func TestTimeHistFullResolutionMean(t *testing.T) {
	// Bucketing is 1 ms but the mean must keep full resolution.
	h := NewTimeHist(10)
	h.Add(0.1)
	h.Add(0.9)
	if got := h.MeanMS(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("MeanMS = %v, want 0.5 (full resolution)", got)
	}
}

func TestTimeHistOverflow(t *testing.T) {
	h := NewTimeHist(10)
	h.Add(5)
	h.Add(500) // beyond range
	if h.Count() != 2 {
		t.Errorf("Count = %d, want 2 (overflow still counted)", h.Count())
	}
	if got := h.MeanMS(); math.Abs(got-252.5) > 1e-12 {
		t.Errorf("MeanMS = %v, want 252.5 (overflow contributes exactly)", got)
	}
}

func TestTimeHistNegativeClamped(t *testing.T) {
	h := NewTimeHist(10)
	h.Add(-3)
	if got := h.MeanMS(); got != 0 {
		t.Errorf("negative sample should clamp to 0, mean = %v", got)
	}
}

func TestFracBelow(t *testing.T) {
	h := NewTimeHist(100)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) * 10) // 0, 10, ..., 90
	}
	if got := h.FracBelow(20); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("FracBelow(20) = %v, want 0.2", got)
	}
	if got := h.FracBelow(1000); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("FracBelow(1000) = %v, want 1", got)
	}
	if got := NewTimeHist(10).FracBelow(5); got != 0 {
		t.Errorf("FracBelow on empty = %v", got)
	}
}

func TestCDF(t *testing.T) {
	h := NewTimeHist(100)
	h.Add(0.5)
	h.Add(1.5)
	h.Add(1.7)
	h.Add(3.2)
	cdf := h.CDF()
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	last := cdf[len(cdf)-1]
	if last.Frac != 1 {
		t.Errorf("CDF does not reach 1: %v", last)
	}
	// Monotone non-decreasing.
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Frac < cdf[i-1].Frac {
			t.Errorf("CDF decreases at %d", i)
		}
	}
	if got := cdf[0]; got.X != 1 || math.Abs(got.Frac-0.25) > 1e-12 {
		t.Errorf("CDF[0] = %+v, want {1 0.25}", got)
	}
}

func TestQuantile(t *testing.T) {
	h := NewTimeHist(100)
	for i := 1; i <= 100; i++ {
		h.Add(float64(i) - 0.5)
	}
	if got := h.Quantile(0.5); got != 50 {
		t.Errorf("median = %v, want 50", got)
	}
	if got := h.Quantile(1.0); got != 100 {
		t.Errorf("p100 = %v, want 100", got)
	}
}

func TestTimeHistMergeAndReset(t *testing.T) {
	a, b := NewTimeHist(50), NewTimeHist(50)
	a.Add(10)
	b.Add(20)
	b.Add(30)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 3 || math.Abs(a.MeanMS()-20) > 1e-12 {
		t.Errorf("after merge: count=%d mean=%v", a.Count(), a.MeanMS())
	}
	if err := a.Merge(NewTimeHist(99)); err == nil {
		t.Error("merging different ranges should error")
	}
	a.Reset()
	if a.Count() != 0 || a.MeanMS() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestTimeHistMergeNil(t *testing.T) {
	a := NewTimeHist(10)
	if err := a.Merge(nil); err != nil {
		t.Errorf("Merge(nil) = %v", err)
	}
}

func TestDistHist(t *testing.T) {
	h := NewDistHist()
	h.Add(0)
	h.Add(0)
	h.Add(10)
	h.Add(-10) // abs
	if h.Count() != 4 {
		t.Errorf("Count = %d", h.Count())
	}
	if got := h.MeanDist(); math.Abs(got-5) > 1e-12 {
		t.Errorf("MeanDist = %v, want 5", got)
	}
	if got := h.ZeroFrac(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ZeroFrac = %v, want 0.5", got)
	}
}

func TestDistHistSeekTime(t *testing.T) {
	h := NewDistHist()
	h.Add(0)
	h.Add(100)
	l := seek.Linear{StartupMS: 2, PerCylMS: 0.01}
	// times: 0 and 3 -> mean 1.5
	if got := h.MeanSeekMS(l); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("MeanSeekMS = %v, want 1.5", got)
	}
}

func TestDistHistMergeHistogram(t *testing.T) {
	a, b := NewDistHist(), NewDistHist()
	a.Add(1)
	b.Add(1)
	b.Add(2)
	a.Merge(b)
	hist := a.Histogram()
	if hist[1] != 2 || hist[2] != 1 {
		t.Errorf("merged histogram = %v", hist)
	}
	if a.Count() != 3 {
		t.Errorf("merged count = %d", a.Count())
	}
	// Histogram returns a copy.
	hist[1] = 99
	if a.Histogram()[1] != 2 {
		t.Error("Histogram exposed internal state")
	}
}

// meanMS is the reference for DistHist.MeanSeekMS: the mean seek time
// of curve c over a distance histogram (hist[d] seeks of distance d),
// summed in sorted distance order, or 0 for an empty histogram.
func meanMS(c seek.Curve, hist map[int]int64) float64 {
	keys := make([]int, 0, len(hist))
	for d := range hist {
		keys = append(keys, d)
	}
	sort.Ints(keys)
	var n int64
	var sum float64
	for _, d := range keys {
		cnt := hist[d]
		if cnt <= 0 {
			continue
		}
		n += cnt
		sum += float64(float64(cnt) * c.SeekMS(d))
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func TestMeanMS(t *testing.T) {
	l := seek.Linear{StartupMS: 1, PerCylMS: 1}
	hist := map[int]int64{0: 2, 1: 1, 3: 1} // times: 0,0,2,4 -> mean 1.5
	if got := meanMS(l, hist); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("MeanMS = %v, want 1.5", got)
	}
}

func TestMeanMSEmpty(t *testing.T) {
	if got := meanMS(seek.ToshibaMK156F, nil); got != 0 {
		t.Errorf("meanMS(empty) = %v, want 0", got)
	}
	if got := meanMS(seek.ToshibaMK156F, map[int]int64{5: 0, 7: -2}); got != 0 {
		t.Errorf("meanMS(non-positive counts) = %v, want 0", got)
	}
}

func TestMeanMSProperty(t *testing.T) {
	// The mean over any distribution lies between min and max curve
	// values over the support.
	f := func(ds [8]uint16, counts [8]uint8) bool {
		hist := map[int]int64{}
		for i, d := range ds {
			if counts[i] == 0 {
				continue
			}
			hist[int(d%815)] += int64(counts[i])
		}
		if len(hist) == 0 {
			return meanMS(seek.ToshibaMK156F, hist) == 0
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for d := range hist {
			v := seek.ToshibaMK156F.SeekMS(d)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		m := meanMS(seek.ToshibaMK156F, hist)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// seekStream adds n seeks of up to maxDist cylinders, in either
// direction, to h.
func seekStream(h *DistHist, rnd *sim.Rand, n, maxDist int) {
	for i := 0; i < n; i++ {
		d := rnd.Intn(maxDist + 1)
		if rnd.Bool(0.3) {
			d = 0 // the rearranged layout's share of zero-length seeks
		}
		if rnd.Bool(0.5) {
			d = -d
		}
		h.Add(d)
	}
}

// TestDistHistMeanSeekMSBitEqual holds the dense histogram's seek mean
// to the reference over its Histogram, to the bit: on random streams,
// after merging histograms of unequal length in both directions, and
// after a Reset.
func TestDistHistMeanSeekMSBitEqual(t *testing.T) {
	curves := []seek.Curve{seek.ToshibaMK156F, seek.FujitsuM2266}
	check := func(what string, h *DistHist) {
		t.Helper()
		for _, c := range curves {
			if got, want := h.MeanSeekMS(c), meanMS(c, h.Histogram()); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: MeanSeekMS = %v, reference %v", what, got, want)
			}
		}
	}
	rnd := sim.NewRand(0x5EEC)
	for trial := 0; trial < 50; trial++ {
		short, long := NewDistHist(), NewDistHist()
		seekStream(short, rnd, 1+rnd.Intn(500), 1+rnd.Intn(60))
		seekStream(long, rnd, 1+rnd.Intn(5000), 200+rnd.Intn(2000))
		check("short stream", short)
		check("long stream", long)

		grown, kept := NewDistHist(), NewDistHist()
		grown.Merge(short)
		grown.Merge(long) // grows to long's length
		kept.Merge(long)
		kept.Merge(short) // already longer than short
		check("short+long", grown)
		check("long+short", kept)
		kh := kept.Histogram()
		for d, c := range grown.Histogram() {
			if kh[d] != c {
				t.Fatalf("distance %d: %d seeks merged one way, %d the other", d, c, kh[d])
			}
		}
		if grown.Count() != short.Count()+long.Count() || grown.MeanDist() != kept.MeanDist() {
			t.Fatalf("merge: count %d, want %d", grown.Count(), short.Count()+long.Count())
		}

		grown.Reset()
		check("reset", grown)
		seekStream(grown, rnd, 1+rnd.Intn(500), 1+rnd.Intn(60))
		check("after reset", grown)
	}
}

// TestDistHistAddZeroAllocs: once the counts cover the disk's distances,
// recording a seek is an indexed increment.
func TestDistHistAddZeroAllocs(t *testing.T) {
	h := NewDistHist()
	h.Add(1500)
	d := 0
	if n := testing.AllocsPerRun(1000, func() {
		h.Add(d % 1501)
		d += 37
	}); n != 0 {
		t.Errorf("Add: %v allocs per seek, want 0", n)
	}
}

func TestDistHistEmpty(t *testing.T) {
	h := NewDistHist()
	if h.MeanDist() != 0 || h.ZeroFrac() != 0 {
		t.Error("empty DistHist should report zeros")
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	for _, v := range []float64{3, 1, 2} {
		s.Add(v)
	}
	if s.Min() != 1 || s.Max() != 3 || math.Abs(s.Avg()-2) > 1e-12 {
		t.Errorf("summary = %v/%v/%v", s.Min(), s.Avg(), s.Max())
	}
	if s.N() != 3 {
		t.Errorf("N = %d", s.N())
	}
	if got := s.String(); got != "1.00/2.00/3.00" {
		t.Errorf("String = %q", got)
	}
	vals := s.Values()
	if len(vals) != 3 || vals[0] != 1 || vals[2] != 3 {
		t.Errorf("Values = %v", vals)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Min() != 0 || s.Max() != 0 || s.Avg() != 0 {
		t.Error("empty summary should report zeros")
	}
}

func TestTimeHistMeanProperty(t *testing.T) {
	// Mean is always within [min, max] of the added samples.
	f := func(raw []uint16) bool {
		h := NewTimeHist(100)
		if len(raw) == 0 {
			return h.MeanMS() == 0
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			v := float64(r) / 16
			h.Add(v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		m := h.MeanMS()
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistHistCountConsistency(t *testing.T) {
	f := func(ds []int16) bool {
		h := NewDistHist()
		for _, d := range ds {
			h.Add(int(d))
		}
		var n int64
		for _, c := range h.Histogram() {
			n += c
		}
		return n == h.Count() && h.Count() == int64(len(ds))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
