package sim

import (
	"math"
	"sort"
	"strconv"
	"testing"
)

// searchRank is the reference Rank: a binary search of the cumulative
// table for u.
func (z *Zipf) searchRank(u float64) int { return sort.SearchFloat64s(z.cum, u) }

// checkRank fails t unless the guide table ranks the 53-bit draw k
// exactly as the binary search ranks k/2^53.
func checkRank(t *testing.T, z *Zipf, k uint64) {
	t.Helper()
	if got, want := z.rank(k), z.searchRank(unit(k)); got != want {
		t.Fatalf("n=%d k=%#x: guide rank %d, search rank %d", len(z.cum), k, got, want)
	}
}

// TestZipfRankMatchesSearch checks the draws where the guide table can
// go wrong: the first draw of every cell, where its lower bound is
// tight, and the draws on and beside every cumulative probability,
// where the rank steps.
func TestZipfRankMatchesSearch(t *testing.T) {
	for _, n := range []int{1, 2, 3, 128, 1000, 1_000_000} {
		for _, theta := range []float64{0.5, 1.1, 3} {
			// At 1 M ranks, θ 1.1 is the tenant population and θ 3 the
			// crowded tail cell; a flat θ adds nothing there but time.
			if n > 1000 && (theta == 0.5 || testing.Short() && theta == 3) {
				continue
			}
			z := NewZipf(n, theta)
			if cells := len(z.guide) - 1; cells < n || cells >= 2*n && n > 1 {
				t.Fatalf("n=%d: %d guide cells, want the least power of two >= n", n, len(z.guide)-1)
			}
			for j := range len(z.guide) - 1 {
				checkRank(t, z, uint64(j)<<z.shift)
			}
			for _, c := range z.cum {
				k := uint64(math.Ceil(c * (1 << 53))) // least k with k/2^53 >= c
				for _, d := range []uint64{k - 1, k, k + 1} {
					if d < 1<<53 {
						checkRank(t, z, d)
					}
				}
			}
			checkRank(t, z, 1<<53-1)
		}
	}
}

// FuzzZipfRank holds Rank to the binary search for any table of up to
// 2^20 ranks, any θ in (0, 3] and any 53-bit draw, and to one Uint64
// per draw.
func FuzzZipfRank(f *testing.F) {
	f.Add(uint32(1), 1.0, uint64(0), uint64(1))
	f.Add(uint32(1000), 1.1, uint64(1)<<52, uint64(7))
	f.Add(uint32(1)<<20, 3.0, uint64(1)<<53-1, uint64(42))
	f.Add(uint32(128), 0.01, uint64(12345678901), uint64(3))
	f.Fuzz(func(t *testing.T, n uint32, theta float64, k, seed uint64) {
		n = 1 + n%(1<<20)
		theta = math.Abs(math.Mod(theta, 3))
		if !(theta > 0) { // 0, or NaN from an infinite or NaN input
			theta = 3
		}
		z := NewZipf(int(n), theta)
		checkRank(t, z, k&(1<<53-1))

		r := NewRand(seed)
		ref := *r
		u := ref.Float64()
		if got, want := z.Rank(r), z.searchRank(u); got != want {
			t.Fatalf("n=%d θ=%v seed=%d: Rank %d, search of Float64 %d", n, theta, seed, got, want)
		}
		if *r != ref {
			t.Fatalf("n=%d θ=%v seed=%d: Rank consumed other than one Uint64", n, theta, seed)
		}
	})
}

// rankSink keeps the benchmarked draws live.
var rankSink int

// BenchmarkZipfRank compares a guide-table draw with the binary search
// it replaced, at the table sizes of a file set, a block footprint and
// the million-tenant population.
func BenchmarkZipfRank(b *testing.B) {
	for _, n := range []int{128, 10_000, 1_000_000} {
		z := NewZipf(n, 1.1)
		b.Run(strconv.Itoa(n)+"/guide", func(b *testing.B) {
			r := NewRand(1)
			for i := 0; i < b.N; i++ {
				rankSink = z.Rank(r)
			}
		})
		b.Run(strconv.Itoa(n)+"/search", func(b *testing.B) {
			r := NewRand(1)
			for i := 0; i < b.N; i++ {
				rankSink = z.searchRank(r.Float64())
			}
		})
	}
}
