package metrics

import (
	"encoding/binary"
	"math"
	"testing"
)

// msOpts is the layout whose whole milliseconds up to 128 are bucket
// boundaries, the driver's service-time layout.
var msOpts = HistogramOpts{SubBits: 6}

// msBelow is the reference for CountBelow at whole milliseconds: the
// rule of a histogram with one bucket per millisecond, which counts a
// sample v ≥ 0 in bucket int(v) and answers "below x" with the sum of
// buckets 0 … x-1.
func msBelow(samples []float64, x int) int64 {
	var n int64
	for _, v := range samples {
		if int(v) < x {
			n++
		}
	}
	return n
}

// checkCountBelow holds CountBelow to msBelow at every whole millisecond
// in [0, 128].
func checkCountBelow(t *testing.T, samples []float64) {
	t.Helper()
	h := NewHistogram(msOpts)
	for _, v := range samples {
		h.Record(v)
	}
	for x := 0; x <= 128; x++ {
		if got, want := h.CountBelow(float64(x)), msBelow(samples, x); got != want {
			t.Fatalf("CountBelow(%d) = %d, want %d (samples %v)", x, got, want, samples)
		}
	}
}

func TestCountBelow(t *testing.T) {
	below1 := math.Nextafter(1, 0)
	above1 := math.Nextafter(1, 2)
	cases := [][]float64{
		nil,
		{0},
		{0, 0, math.Ldexp(1, -11), math.Ldexp(1, -10)},
		{below1, 1, above1},
		{math.Nextafter(64, 0), 64, 64.5, math.Nextafter(65, 0)},
		{math.Nextafter(128, 0), 128, 128.5, 129, 4000, 1e9},
		{5, 10.25, 19.999, 20, 20.001, 37.5, 60, 99.9, 100},
	}
	for _, samples := range cases {
		checkCountBelow(t, samples)
	}
	h := NewHistogram(msOpts)
	for _, v := range []float64{0.5, 1.5, 1.7, 3.2} {
		h.Record(v)
	}
	for x, want := range []int64{0, 1, 3, 3, 4} {
		if got := h.CountBelow(float64(x)); got != want {
			t.Errorf("CountBelow(%d) = %d, want %d", x, got, want)
		}
	}
	// Above the last boundary every sample counts, the overflow bucket's
	// too; between boundaries the count stops at the lower one.
	if got := h.CountBelow(math.Inf(1)); got != h.Count() {
		t.Errorf("CountBelow(+Inf) = %d, want %d", got, h.Count())
	}
	if got := h.CountBelow(1.51); got != 1 {
		t.Errorf("CountBelow(1.51) = %d, want 1 (1.5's bucket ends at 1.515625)", got)
	}
}

// TestMsLayoutFullResolutionMean: in the service-time layout the mean
// keeps full resolution below 1 ms.
func TestMsLayoutFullResolutionMean(t *testing.T) {
	h := NewHistogram(msOpts)
	h.Record(0.1)
	h.Record(0.9)
	if got := h.Mean(); math.Abs(got-0.5) > 1e-12 || h.CountBelow(1) != 2 {
		t.Errorf("Mean = %v, CountBelow(1) = %d; want 0.5 (full resolution) and 2", got, h.CountBelow(1))
	}
}

// TestMsLayoutOverflow: samples past the last whole-millisecond
// boundary are still counted and summed exactly.
func TestMsLayoutOverflow(t *testing.T) {
	h := NewHistogram(msOpts)
	h.Record(5)
	h.Record(500)
	if h.Count() != 2 || math.Abs(h.Mean()-252.5) > 1e-12 || h.CountBelow(128) != 1 {
		t.Errorf("Count = %d, Mean = %v, CountBelow(128) = %d; want 2, 252.5, 1", h.Count(), h.Mean(), h.CountBelow(128))
	}
}

// FuzzCountBelow holds CountBelow to the one-bucket-per-millisecond
// rule for any samples ≥ 0 and every whole millisecond in [0, 128].
// Each 8 bytes of input are one sample's float64 bits, its absolute
// value taken modulo 256 ms.
func FuzzCountBelow(f *testing.F) {
	seed := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed())
	f.Add(seed(0, 1, 2.5, 127.75))
	f.Add(seed(math.Nextafter(1, 0), math.Nextafter(128, 0), 128, 200))
	f.Add(seed(math.Ldexp(1, -10), math.Ldexp(1, -30), 5e-324))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var samples []float64
		for ; len(raw) >= 8; raw = raw[8:] {
			v := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(raw)))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			samples = append(samples, math.Mod(v, 256))
		}
		checkCountBelow(t, samples)
	})
}
