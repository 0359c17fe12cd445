package blocktable

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// BenchmarkTableWrite measures the host cost of the block-table writes
// of one night at the paper's two table sizes (1018 blocks on the
// Toshiba, 3500 on the Fujitsu): "install" adds the blocks in placement
// order — original addresses in no particular order — encoding the
// table after each, as BCopy does; "clean" removes them lowest address
// first, encoding after each, as Clean does. One op is the whole night;
// ns/write is per table write.
func BenchmarkTableWrite(b *testing.B) {
	const bsec = 16
	for _, n := range []int{1018, 3500} {
		rnd := rand.New(rand.NewSource(int64(n)))
		origs := make([]int64, n)
		for i, blk := range rnd.Perm(8 * n)[:n] {
			origs[i] = int64(blk) * bsec
		}
		sorted := append([]int64(nil), origs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		fill := func() *Table {
			t := New(geom.Block8K)
			for k, o := range origs {
				if err := t.Add(o, int64(1<<24+k*bsec)); err != nil {
					b.Fatal(err)
				}
			}
			return t
		}
		perWrite := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/write")
		}
		b.Run(fmt.Sprintf("install-%d", n), func(b *testing.B) {
			buf := make([]byte, 0, EncodedSectors(n)*geom.SectorSize)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t := New(geom.Block8K)
				for k, o := range origs {
					if err := t.Add(o, int64(1<<24+k*bsec)); err != nil {
						b.Fatal(err)
					}
					buf = t.EncodeTo(buf[:0])
				}
			}
			perWrite(b)
		})
		b.Run(fmt.Sprintf("clean-%d", n), func(b *testing.B) {
			buf := make([]byte, 0, EncodedSectors(n)*geom.SectorSize)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				t := fill()
				b.StartTimer()
				for _, o := range sorted {
					t.Remove(o)
					buf = t.EncodeTo(buf[:0])
				}
			}
			perWrite(b)
		})
	}
}
