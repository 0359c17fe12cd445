// Package stats_test checks the statistics of Section 4.1.5 where they
// are kept: the driver's service times in a metrics.Histogram whose
// whole milliseconds up to 128 are bucket boundaries, its seek-distance
// distribution (driver.DistHist) and the seek means priced over it, and
// the daily min/avg/max of the on/off tables (experiment.Summary).
package stats_test

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/driver"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/seek"
	"repro/internal/sim"
)

// newService returns a histogram of the driver's service-time layout.
func newService() *metrics.Histogram {
	return metrics.NewHistogram(metrics.HistogramOpts{SubBits: 6})
}

// fracBelow is the 1 ms CDF of Figures 4 and 6 at ms: the share of h's
// samples below it, or 0 for an empty h.
func fracBelow(h *metrics.Histogram, ms int) float64 {
	if h.Count() == 0 {
		return 0
	}
	return float64(h.CountBelow(float64(ms))) / float64(h.Count())
}

func TestTimeHistMean(t *testing.T) {
	h := newService()
	for _, v := range []float64{1.25, 2.75, 6.0} {
		h.Record(v)
	}
	if got := h.Mean(); math.Abs(got-10.0/3) > 1e-12 {
		t.Errorf("Mean = %v, want %v", got, 10.0/3)
	}
	if h.Count() != 3 {
		t.Errorf("Count = %d", h.Count())
	}
}

func TestTimeHistFullResolutionMean(t *testing.T) {
	// Both samples fall below 1 ms, but the mean keeps full resolution.
	h := newService()
	h.Record(0.1)
	h.Record(0.9)
	if got := h.Mean(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Mean = %v, want 0.5 (full resolution)", got)
	}
	if got := h.CountBelow(1); got != 2 {
		t.Errorf("CountBelow(1) = %d, want 2", got)
	}
}

func TestTimeHistOverflow(t *testing.T) {
	h := newService()
	h.Record(5)
	h.Record(500) // beyond the 1 ms boundaries
	if h.Count() != 2 {
		t.Errorf("Count = %d, want 2 (long samples still counted)", h.Count())
	}
	if got := h.Mean(); math.Abs(got-252.5) > 1e-12 {
		t.Errorf("Mean = %v, want 252.5 (long samples contribute exactly)", got)
	}
	if got := h.CountBelow(128); got != 1 {
		t.Errorf("CountBelow(128) = %d, want 1", got)
	}
}

func TestFracBelow(t *testing.T) {
	h := newService()
	for i := 0; i < 10; i++ {
		h.Record(float64(i) * 10) // 0, 10, ..., 90
	}
	if got := fracBelow(h, 20); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("fracBelow(20) = %v, want 0.2", got)
	}
	if got := fracBelow(h, 100); got != 1 {
		t.Errorf("fracBelow(100) = %v, want 1", got)
	}
	if got := fracBelow(newService(), 5); got != 0 {
		t.Errorf("fracBelow on empty = %v", got)
	}
}

// TestCDF builds the 1 ms CDF the way Figures 4 and 6 do, stopping at
// the first step that covers every sample.
func TestCDF(t *testing.T) {
	h := newService()
	for _, v := range []float64{0.5, 1.5, 1.7, 3.2} {
		h.Record(v)
	}
	var cdf []float64
	for ms := 1; ms <= 128; ms++ {
		cdf = append(cdf, fracBelow(h, ms))
		if cdf[len(cdf)-1] == 1 {
			break
		}
	}
	if want := []float64{0.25, 0.75, 0.75, 1}; len(cdf) != len(want) {
		t.Fatalf("CDF = %v, want %v", cdf, want)
	} else {
		for i := range want {
			if cdf[i] != want[i] {
				t.Errorf("CDF at %d ms = %v, want %v", i+1, cdf[i], want[i])
			}
		}
	}
}

func TestTimeHistMergeAndReset(t *testing.T) {
	a, b := newService(), newService()
	a.Record(10)
	b.Record(20)
	b.Record(30)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 3 || math.Abs(a.Mean()-20) > 1e-12 || a.CountBelow(25) != 2 {
		t.Errorf("after merge: count=%d mean=%v below 25 ms=%d", a.Count(), a.Mean(), a.CountBelow(25))
	}
	if err := a.Merge(metrics.NewHistogram(metrics.HistogramOpts{})); err == nil {
		t.Error("merging a different layout should error")
	}
	// The driver starts each window on fresh histograms and merges them
	// into fresh ones: a merge leaves its source as it was.
	fresh := newService()
	if err := fresh.Merge(b); err != nil {
		t.Fatal(err)
	}
	fresh.Record(40)
	if b.Count() != 2 || b.Sum() != 50 || fresh.Count() != 3 {
		t.Errorf("source %d/%v, merged %d after recording into the merge", b.Count(), b.Sum(), fresh.Count())
	}
}

// TestTimeHistMergeNil: merging a window with no requests, as the
// driver does for an idle direction, changes nothing.
func TestTimeHistMergeNil(t *testing.T) {
	a := newService()
	a.Record(7.5)
	if err := a.Merge(newService()); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 1 || a.Sum() != 7.5 || a.Min() != 7.5 || a.Max() != 7.5 {
		t.Errorf("after merging an empty histogram: %d samples, sum %v, range [%v, %v]", a.Count(), a.Sum(), a.Min(), a.Max())
	}
}

func TestTimeHistMeanProperty(t *testing.T) {
	// Mean is always within [min, max] of the recorded samples.
	f := func(raw []uint16) bool {
		h := newService()
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

func TestDistHist(t *testing.T) {
	var h driver.DistHist
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
	var h driver.DistHist
	h.Add(0)
	h.Add(100)
	l := seek.Linear{StartupMS: 2, PerCylMS: 0.01}
	// times: 0 and 3 -> mean 1.5
	if got := h.MeanSeekMS(l); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("MeanSeekMS = %v, want 1.5", got)
	}
}

func TestDistHistMergeHistogram(t *testing.T) {
	var a, b driver.DistHist
	a.Add(1)
	b.Add(1)
	b.Add(2)
	a.Merge(&b)
	// Two seeks of 1 and one of 2: under this curve a seek of d > 0
	// costs d+1 ms, so the seek mean is the mean distance plus 1.
	l := seek.Linear{StartupMS: 1, PerCylMS: 1}
	if a.Count() != 3 || a.MeanDist() != 4.0/3 || a.MeanSeekMS(l) != 7.0/3 {
		t.Errorf("merged: count %d, mean %v cylinders, %v ms", a.Count(), a.MeanDist(), a.MeanSeekMS(l))
	}
	// The merge copied b's counts.
	b.Add(2)
	if a.Count() != 3 || a.MeanDist() != 4.0/3 {
		t.Error("merged histogram shares its source's counts")
	}
}

func TestDistHistEmpty(t *testing.T) {
	var h driver.DistHist
	if h.Count() != 0 || h.MeanDist() != 0 || h.ZeroFrac() != 0 || h.MeanSeekMS(seek.ToshibaMK156F) != 0 {
		t.Error("empty DistHist should report zeros")
	}
}

func TestDistHistCountConsistency(t *testing.T) {
	f := func(ds []int16) bool {
		var h driver.DistHist
		var sum int64
		for _, d := range ds {
			h.Add(int(d))
			if d < 0 {
				sum -= int64(d)
			} else {
				sum += int64(d)
			}
		}
		if len(ds) == 0 {
			return h.Count() == 0 && h.MeanDist() == 0
		}
		return h.Count() == int64(len(ds)) && h.MeanDist() == float64(sum)/float64(len(ds))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
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
		t.Errorf("meanMS = %v, want 1.5", got)
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
// direction, to h, and the same distances to ref.
func seekStream(h *driver.DistHist, ref map[int]int64, rnd *sim.Rand, n, maxDist int) {
	for i := 0; i < n; i++ {
		d := rnd.Intn(maxDist + 1)
		if rnd.Bool(0.3) {
			d = 0 // the rearranged layout's share of zero-length seeks
		}
		ref[d]++
		if rnd.Bool(0.5) {
			d = -d
		}
		h.Add(d)
	}
}

// TestDistHistMeanSeekMSBitEqual holds the dense histogram to a map of
// the distances added, |d| for a negative d: its seek mean to meanMS to
// the bit, and its count, mean distance and zero share exactly, on
// random streams and after merging histograms of unequal length in
// both directions.
func TestDistHistMeanSeekMSBitEqual(t *testing.T) {
	curves := []seek.Curve{seek.ToshibaMK156F, seek.FujitsuM2266}
	check := func(what string, h *driver.DistHist, ref map[int]int64) {
		t.Helper()
		for _, c := range curves {
			if got, want := h.MeanSeekMS(c), meanMS(c, ref); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: MeanSeekMS = %v, reference %v", what, got, want)
			}
		}
		var n, sum int64
		for d, c := range ref {
			n += c
			sum += int64(d) * c
		}
		var dist, zero float64
		if n > 0 {
			dist, zero = float64(sum)/float64(n), float64(ref[0])/float64(n)
		}
		if h.Count() != n || h.MeanDist() != dist || h.ZeroFrac() != zero {
			t.Fatalf("%s: count %d, mean %v, zero share %v; reference %d, %v, %v",
				what, h.Count(), h.MeanDist(), h.ZeroFrac(), n, dist, zero)
		}
	}
	check("empty", &driver.DistHist{}, map[int]int64{})
	rnd := sim.NewRand(0x5EEC)
	for trial := 0; trial < 50; trial++ {
		short, long := &driver.DistHist{}, &driver.DistHist{}
		shortRef, longRef := map[int]int64{}, map[int]int64{}
		seekStream(short, shortRef, rnd, 1+rnd.Intn(500), 1+rnd.Intn(60))
		seekStream(long, longRef, rnd, 1+rnd.Intn(5000), 200+rnd.Intn(2000))
		check("short stream", short, shortRef)
		check("long stream", long, longRef)

		both := map[int]int64{}
		for _, ref := range []map[int]int64{shortRef, longRef} {
			for d, c := range ref {
				both[d] += c
			}
		}
		grown, kept := &driver.DistHist{}, &driver.DistHist{}
		grown.Merge(short)
		grown.Merge(long) // grows to long's length
		kept.Merge(long)
		kept.Merge(short) // already longer than short
		check("short+long", grown, both)
		check("long+short", kept, both)
	}
}

func TestSummary(t *testing.T) {
	var s experiment.Summary
	for _, v := range []float64{3, 1, 2} {
		s.Add(v)
	}
	if s.Min() != 1 || s.Max() != 3 || math.Abs(s.Avg()-2) > 1e-12 {
		t.Errorf("summary = %v/%v/%v", s.Min(), s.Avg(), s.Max())
	}
	if got := s.String(); got != "1.00/2.00/3.00" {
		t.Errorf("String = %q", got)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s experiment.Summary
	if s.Min() != 0 || s.Max() != 0 || s.Avg() != 0 {
		t.Error("empty summary should report zeros")
	}
	if got := s.String(); got != "0.00/0.00/0.00" {
		t.Errorf("empty summary = %q", got)
	}
}
