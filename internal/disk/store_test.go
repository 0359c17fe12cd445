package disk

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/geom"
)

// refStore is the naive reference for the sparse store: one map entry
// per written sector, and the set of pages the real store must have
// materialized — a page exists once a non-zero sector was stored in it.
type refStore struct {
	sectors map[int64][]byte
	pages   map[int64]bool
}

func (r *refStore) write(sector int64, data []byte) {
	for i := 0; i*geom.SectorSize < len(data); i++ {
		s := sector + int64(i)
		chunk := data[i*geom.SectorSize : (i+1)*geom.SectorSize]
		for _, c := range chunk {
			if c != 0 {
				r.pages[s/pageSectors] = true
				break
			}
		}
		r.sectors[s] = append([]byte(nil), chunk...)
	}
}

func (r *refStore) read(sector int64, count int) []byte {
	out := make([]byte, count*geom.SectorSize)
	for i := 0; i < count; i++ {
		copy(out[i*geom.SectorSize:], r.sectors[sector+int64(i)])
	}
	return out
}

// tear mirrors tearWrite: n bytes reach the media, the last sector
// partially, over whatever it held.
func (r *refStore) tear(sector int64, data []byte, n int) {
	full := n / geom.SectorSize
	r.write(sector, data[:full*geom.SectorSize])
	if rem := n % geom.SectorSize; rem > 0 {
		old := r.read(sector+int64(full), 1)
		copy(old[:rem], data[full*geom.SectorSize:n])
		r.write(sector+int64(full), old)
	}
}

// Seeded random programs of writes, reads and torn writes over
// unaligned ranges that straddle pages, against the per-sector
// reference: same bytes back, same pages materialized.
func TestSparseStoreMatchesReference(t *testing.T) {
	const span = 40 * pageSectors // small, so ranges overlap often
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(seed))
			d := MustNew(Toshiba())
			ref := &refStore{sectors: map[int64][]byte{}, pages: map[int64]bool{}}
			payload := func(count int) []byte {
				data := make([]byte, count*geom.SectorSize)
				switch rnd.Intn(4) {
				case 0: // all zeros
				case 1: // dense
					rnd.Read(data)
				case 2: // one non-zero byte somewhere
					data[rnd.Intn(len(data))] = byte(1 + rnd.Intn(255))
				default: // a few non-zero sectors among zero ones
					for i := 0; i < count; i++ {
						if rnd.Intn(3) == 0 {
							rnd.Read(data[i*geom.SectorSize : (i+1)*geom.SectorSize])
						}
					}
				}
				return data
			}
			for op := 0; op < 600; op++ {
				count := 1 + rnd.Intn(2*pageSectors+8)
				sector := int64(rnd.Intn(span - count))
				switch p := rnd.Intn(10); {
				case p < 5:
					data := payload(count)
					d.writeData(sector, data)
					ref.write(sector, data)
				case p < 7:
					data := payload(count)
					d.SetFaults(fault.NewInjector(fault.Plan{Seed: uint64(rnd.Int63())}))
					n := d.faults.TornBytes(len(data))
					d.tearWrite(sector, data)
					d.SetFaults(nil)
					ref.tear(sector, data, n)
				default:
					if got, want := d.readData(sector, count), ref.read(sector, count); !bytes.Equal(got, want) {
						t.Fatalf("op %d: read [%d,+%d) differs from the reference", op, sector, count)
					}
				}
			}
			if got, want := d.readData(0, span), ref.read(0, span); !bytes.Equal(got, want) {
				t.Fatal("final sweep differs from the reference")
			}
			if len(d.pages) != len(ref.pages) {
				t.Fatalf("%d pages materialized, reference says %d", len(d.pages), len(ref.pages))
			}
			for key := range ref.pages {
				if _, ok := d.pages[key]; !ok {
					t.Fatalf("page %d not materialized", key)
				}
			}
		})
	}
}

// The zero test must see a lone non-zero byte wherever it sits in the
// run — first byte, either side of a word boundary, either side of a
// sector boundary, last byte — and must keep skipping runs of zeros.
func TestSparseStoreZeroDetection(t *testing.T) {
	const pageBytes = pageSectors * geom.SectorSize
	for _, tc := range []struct {
		name    string
		sector  int64 // within a fresh page-aligned region
		sectors int
	}{
		{"one whole page", 0, pageSectors},
		{"two half pages", pageSectors / 2, pageSectors},
		{"one sector", 3, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			size := tc.sectors * geom.SectorSize
			for _, pos := range []int{0, 7, 8, 511, 512, size - 1} {
				if pos >= size {
					continue
				}
				d := MustNew(Toshiba())
				base := int64(100 * pageSectors)
				zeros := make([]byte, size)
				d.writeData(base+tc.sector, zeros)
				if len(d.pages) != 0 {
					t.Fatalf("a write of zeros materialized %d pages", len(d.pages))
				}
				data := make([]byte, size)
				data[pos] = 1
				d.writeData(base+tc.sector, data)
				wantPage := (base*geom.SectorSize + tc.sector*geom.SectorSize + int64(pos)) / pageBytes
				if _, ok := d.pages[wantPage]; !ok || len(d.pages) != 1 {
					t.Fatalf("non-zero byte at %d: pages %d materialized (have page %d: %v), want exactly that one",
						pos, len(d.pages), wantPage, ok)
				}
				if got := d.readData(base+tc.sector, tc.sectors); !bytes.Equal(got, data) {
					t.Fatalf("non-zero byte at %d: read back differs", pos)
				}
				// Zeros over a materialized page are stored like any data.
				d.writeData(base+tc.sector, zeros)
				if got := d.readData(base+tc.sector, tc.sectors); !bytes.Equal(got, zeros) {
					t.Fatalf("non-zero byte at %d: zeros did not overwrite it", pos)
				}
			}
		})
	}
}

// A write of zeros to a page that was never materialized is the
// rebuild-onto-a-spare fast path: it must not allocate at all.
func TestZeroWriteToEmptyPageNoAlloc(t *testing.T) {
	d := MustNew(Toshiba())
	zeros := make([]byte, pageSectors*geom.SectorSize)
	now, sector := 0.0, int64(0)
	n := testing.AllocsPerRun(200, func() {
		tm, err := d.Write(now, sector, pageSectors, zeros)
		if err != nil {
			t.Fatal(err)
		}
		now += tm.TotalMS()
		sector += pageSectors + 8 // unaligned: two page runs per write
	})
	if n != 0 {
		t.Errorf("zero write to an unmaterialized page: %v allocs, want 0", n)
	}
	if len(d.pages) != 0 {
		t.Errorf("zero writes materialized %d pages", len(d.pages))
	}
}
