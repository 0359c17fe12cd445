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

// tear mirrors tearWrite: n bytes of the count-sector extent reach the
// media, the last sector partially, over whatever it held; past data's
// end the extent holds zeros.
func (r *refStore) tear(sector int64, count int, data []byte, n int) {
	ext := make([]byte, count*geom.SectorSize)
	copy(ext, data)
	full := n / geom.SectorSize
	r.writeExtent(sector, full, ext[:min(len(data), full*geom.SectorSize)])
	if rem := n % geom.SectorSize; rem > 0 {
		old := r.read(sector+int64(full), 1)
		copy(old[:rem], ext[full*geom.SectorSize:n])
		r.write(sector+int64(full), old)
	}
}

// writeExtent mirrors a write of count sectors whose payload is data
// followed by zeros: the zero tail leaves absent pages absent and drops
// every page it covers whole.
func (r *refStore) writeExtent(sector int64, count int, data []byte) {
	r.write(sector, data)
	tail := sector + int64(len(data)/geom.SectorSize)
	r.write(tail, make([]byte, (sector+int64(count)-tail)*geom.SectorSize))
	for key := (tail + pageSectors - 1) / pageSectors; (key+1)*pageSectors <= sector+int64(count); key++ {
		delete(r.pages, key)
	}
}

// Seeded random programs of writes (some with a short payload), reads
// and torn writes over unaligned ranges that straddle pages, against
// the per-sector reference: same bytes back, same pages materialized. Every read
// buffer is recycled once checked, and one read in three is of exactly
// one block, so the program runs on poisoned buffers taken back from
// the pool.
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
				// A write's payload is the whole extent or, one time in
				// three, a head of it with the rest left to be zeroed.
				head := count
				if rnd.Intn(3) == 0 {
					head = rnd.Intn(count + 1)
				}
				switch p := rnd.Intn(10); {
				case p < 5:
					data := payload(count)[:head*geom.SectorSize]
					if _, err := d.Write(0, sector, count, data); err != nil {
						t.Fatal(err)
					}
					ref.writeExtent(sector, count, data)
				case p < 7:
					data := payload(count)[:head*geom.SectorSize]
					d.SetFaults(fault.NewInjector(fault.Plan{Seed: uint64(rnd.Int63())}))
					n := d.faults.TornBytes(count * geom.SectorSize)
					d.tearWrite(sector, count, data)
					d.SetFaults(nil)
					ref.tear(sector, count, data, n)
				default:
					if p == 9 { // one block at any alignment: the pooled size
						count = pageSectors
						sector = int64(rnd.Intn(span - count))
					}
					got := d.readData(sector, count)
					if want := ref.read(sector, count); !bytes.Equal(got, want) {
						t.Fatalf("op %d: read [%d,+%d) differs from the reference", op, sector, count)
					}
					Recycle(got)
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

// drainPool empties the free list so the next Recycle decides which
// buffer the next block read is handed.
func drainPool() {
	for {
		select {
		case <-freeBufs:
		default:
			return
		}
	}
}

// A recycled buffer holds poison, not zeros, and nothing clears it on
// the way out: a read must overwrite every byte itself. The cases are
// the ones where most of what it writes is zeros it used to get from
// make — a range never written, a block straddling a materialized and
// a missing page (either order), and a page whose only non-zero byte
// sits at an edge of a sector or of the page.
func TestReadIntoRecycledBufferMatchesReference(t *testing.T) {
	const base = 100 * pageSectors
	lone := func(pos int) []byte {
		data := make([]byte, bufBytes)
		data[pos] = 0x5A
		return data
	}
	dense := bytes.Repeat([]byte{0xC3}, bufBytes)
	for _, tc := range []struct {
		name   string
		at     int64  // where data is written, relative to base
		data   []byte // nil: nothing is written
		sector int64  // the block read, relative to base
	}{
		{"never written", 0, nil, 0},
		{"never written, unaligned", 0, nil, 5},
		{"materialized then missing", 0, dense, pageSectors / 2},
		{"missing then materialized", pageSectors, dense, pageSectors / 2},
		{"lone byte at 0", 0, lone(0), 0},
		{"lone byte at 511", 0, lone(511), 0},
		{"lone byte at 512", 0, lone(512), 0},
		{"lone byte at the end", 0, lone(bufBytes - 1), 0},
		{"lone byte at the end, block straddling", 0, lone(bufBytes - 1), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := MustNew(Toshiba())
			ref := &refStore{sectors: map[int64][]byte{}, pages: map[int64]bool{}}
			if tc.data != nil {
				d.writeData(base+tc.at, tc.data)
				ref.write(base+tc.at, tc.data)
			}
			drainPool()
			buf := make([]byte, bufBytes)
			Recycle(buf)
			if buf[0] != poison || buf[bufBytes-1] != poison {
				t.Fatal("Recycle did not poison the buffer")
			}
			got := d.readData(base+tc.sector, pageSectors)
			if &got[0] != &buf[0] {
				t.Fatal("the read did not take the recycled buffer")
			}
			if want := ref.read(base+tc.sector, pageSectors); !bytes.Equal(got, want) {
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("byte %d of the block reads %#x, reference says %#x", i, got[i], want[i])
					}
				}
			}
		})
	}
}

// The pool takes one size only and never more than its capacity, and
// what it declines stays untouched (the caller may have been wrong to
// offer it, but must not be punished with poison for that).
func TestRecycleBounds(t *testing.T) {
	drainPool()
	for _, n := range []int{0, geom.SectorSize, bufBytes - 1, bufBytes + 1, 2 * bufBytes} {
		odd := make([]byte, n)
		Recycle(odd)
		if len(freeBufs) != 0 {
			t.Fatalf("a %d-byte buffer was pooled", n)
		}
		if n > 0 && odd[0] != 0 {
			t.Fatalf("a %d-byte buffer was poisoned", n)
		}
	}
	if got := Buffer(3 * geom.SectorSize); len(got) != 3*geom.SectorSize {
		t.Fatalf("Buffer(3 sectors) is %d bytes", len(got))
	}
	for i := 0; i < cap(freeBufs)+10; i++ {
		Recycle(make([]byte, bufBytes))
	}
	if len(freeBufs) != cap(freeBufs) {
		t.Fatalf("pool holds %d buffers after %d recycles, want its capacity %d",
			len(freeBufs), cap(freeBufs)+10, cap(freeBufs))
	}
	drainPool()
	if buf := Buffer(bufBytes); len(buf) != bufBytes || buf[0] != 0 {
		t.Fatal("an empty pool must fall back to a fresh zeroed buffer")
	}
}

// A block read whose buffer comes back costs no allocation.
func TestReadRecycleNoAlloc(t *testing.T) {
	d := MustNew(Toshiba())
	d.writeData(0, bytes.Repeat([]byte{1}, bufBytes))
	now, sector := 0.0, int64(0)
	n := testing.AllocsPerRun(200, func() {
		data, tm, err := d.Read(now, sector, pageSectors)
		if err != nil {
			t.Fatal(err)
		}
		Recycle(data)
		now += tm.TotalMS()
		sector = (sector + 8) % 64 // written, straddling and unwritten blocks in turn
	})
	if n != 0 {
		t.Errorf("read + recycle: %v allocs, want 0", n)
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
