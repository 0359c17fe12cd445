package disk

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/geom"
)

// materialized reports whether the store holds page key.
func (d *Disk) materialized(key int64) bool {
	p := d.slot(key)
	return p != nil && p.b != nil
}

// pageCount returns how many pages the store holds.
func (d *Disk) pageCount() int {
	n := 0
	for _, c := range d.chunks {
		if c != nil {
			for i := range c {
				if c[i].b != nil {
					n++
				}
			}
		}
	}
	return n
}

// chunkCount returns how many chunks of the page table are allocated.
func (d *Disk) chunkCount() int {
	n := 0
	for _, c := range d.chunks {
		if c != nil {
			n++
		}
	}
	return n
}

// refStore is the naive reference for the sparse store: one map entry
// per written sector, and the set of pages the real store must have
// materialized — a page exists once a non-zero sector was stored in it.
type refStore struct {
	sectors map[int64][]byte
	pages   map[int64]bool
}

func newRefStore() *refStore {
	return &refStore{sectors: map[int64][]byte{}, pages: map[int64]bool{}}
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

// held is a buffer the store handed out, or was handed to keep, and what
// it must hold for good.
type held struct {
	what      string
	buf, want []byte
}

// storeProgram runs a program of up to ops store operations against the
// per-sector reference, its choices drawn from choose (one of n; false
// once the choices have run out, which ends the program — the step that
// asked completes with zeros), each in one of two windows of the disk
// small enough that ranges overlap often — forty pages straddling the
// boundary between the page table's first two chunks, and the disk's
// last forty pages, the last of them partial:
//
//   - a write of any range, copied, its payload the whole extent or a
//     head of it with the rest to be zeroed (which drops or clears the
//     pages the tail reaches);
//   - a write whose payload the store keeps: one block, page-aligned
//     (the page becomes the payload) or not (it is copied after all);
//   - a torn write: a prefix of the extent lands, the last sector of it
//     partly;
//   - a read of one page-aligned block (the page is lent, or the zero
//     page) or of any range (a copy).
//
// Every read result and every kept payload is held to the end: the
// store must never change one, whatever the later writes, zero tails
// and tears do to the pages they shared. Reads must match the reference
// when made, the final sweep must match it, and the store must have
// materialized the same pages.
func storeProgram(t *testing.T, ops int, choose func(n int) (int, bool)) {
	d := MustNew(Toshiba())
	total := d.Geom().TotalSectors()
	lastPage := (total - 1) / pageSectors
	windows := []struct {
		base int64
		span int // sectors
	}{
		{(chunkPages - 20) * pageSectors, 40 * pageSectors},
		{(lastPage - 39) * pageSectors, int(total - (lastPage-39)*pageSectors)},
	}
	ref := newRefStore()
	var keep []held
	over := false
	pick := func(n int) int {
		v, ok := choose(n)
		over = over || !ok
		return v
	}
	payload := func(count int) []byte {
		data := make([]byte, count*geom.SectorSize)
		fill := func(b []byte) {
			for i := range b {
				b[i] = byte(pick(256))
			}
		}
		switch pick(4) {
		case 0: // all zeros
		case 1: // dense
			fill(data[:geom.SectorSize])
			for i := geom.SectorSize; i < len(data); i++ {
				data[i] = data[i-geom.SectorSize] ^ byte(i)
			}
		case 2: // one non-zero byte somewhere
			data[pick(len(data))] = byte(1 + pick(255))
		default: // a few non-zero sectors among zero ones
			for i := 0; i < count; i++ {
				if pick(3) == 0 {
					fill(data[i*geom.SectorSize : i*geom.SectorSize+8])
				}
			}
		}
		return data
	}
	for op := 0; op < ops && !over; op++ {
		w := windows[pick(len(windows))]
		base, span := w.base, w.span
		count := 1 + pick(2*pageSectors+8)
		sector := base + int64(pick(span-count+1))
		switch p := pick(10); {
		case p < 3:
			head := count
			if pick(3) == 0 {
				head = pick(count + 1)
			}
			data := payload(count)[:head*geom.SectorSize]
			if _, err := d.Write(0, sector, count, data); err != nil {
				t.Fatal(err)
			}
			ref.writeExtent(sector, count, data)
		case p < 5:
			sector = base + int64(pick(span/pageSectors))*pageSectors
			if pick(4) == 0 && sector+2*pageSectors <= base+int64(span) {
				sector += int64(1 + pick(pageSectors-1))
			}
			data := payload(pageSectors)
			if _, err := d.WriteOwned(0, sector, pageSectors, data); err != nil {
				t.Fatal(err)
			}
			ref.writeExtent(sector, pageSectors, data)
			keep = append(keep, held{fmt.Sprintf("payload kept at op %d", op), data, bytes.Clone(data)})
		case p < 7:
			head := count
			if pick(3) == 0 {
				head = pick(count + 1)
			}
			data := payload(count)[:head*geom.SectorSize]
			d.SetFaults(fault.NewInjector(fault.Plan{Seed: uint64(pick(1 << 30))}))
			n := d.faults.TornBytes(count * geom.SectorSize)
			d.tearWrite(sector, count, data)
			d.SetFaults(nil)
			ref.tear(sector, count, data, n)
		default:
			if p >= 8 { // one page-aligned block: the lending path
				count, sector = pageSectors, base+int64(pick(span/pageSectors))*pageSectors
			}
			got, _, err := d.Read(0, sector, count)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.read(sector, count)
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: read [%d,+%d) differs from the reference", op, sector, count)
			}
			keep = append(keep, held{fmt.Sprintf("read [%d,+%d) at op %d", sector, count, op), got, want})
		}
	}
	for _, h := range keep {
		if !bytes.Equal(h.buf, h.want) {
			t.Fatalf("the store changed a buffer it shared: the %s", h.what)
		}
	}
	for _, w := range windows {
		if got, want := d.readData(w.base, w.span), ref.read(w.base, w.span); !bytes.Equal(got, want) {
			t.Fatalf("final sweep of [%d,+%d) differs from the reference", w.base, w.span)
		}
	}
	if n := d.pageCount(); n != len(ref.pages) {
		t.Fatalf("%d pages materialized, reference says %d", n, len(ref.pages))
	}
	for key := range ref.pages {
		if !d.materialized(key) {
			t.Fatalf("page %d not materialized", key)
		}
	}
}

// Seeded random programs of copied, kept and torn writes and held reads
// (storeProgram), 600 operations each.
func TestSparseStoreMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(seed))
			storeProgram(t, 600, func(n int) (int, bool) { return rnd.Intn(n), true })
		})
	}
}

// FuzzStoreOps runs storeProgram with its choices read from the input,
// two bytes per choice, until the input (or 500 operations) runs out.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0, 3, 1, 0, 0, 2, 9, 9, 0, 1})
	f.Add(bytes.Repeat([]byte{7, 1, 0, 5, 3, 9, 2, 0xFF}, 40))
	f.Add(bytes.Repeat([]byte{0, 4, 0, 9, 1, 4, 4, 0, 8, 8, 3, 2}, 64))
	f.Fuzz(func(t *testing.T, prog []byte) {
		storeProgram(t, 500, func(n int) (int, bool) {
			if len(prog) < 2 {
				return 0, false
			}
			v := int(prog[0])<<8 | int(prog[1])
			prog = prog[2:]
			return v % n, true
		})
	})
}

// The zero test must see a lone non-zero byte wherever it sits in the
// run — first byte, either side of a word boundary, either side of a
// sector boundary, last byte — and must keep skipping runs of zeros.
func TestSparseStoreZeroDetection(t *testing.T) {
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
				for _, keep := range []bool{false, true} {
					d := MustNew(Toshiba())
					base := int64(100 * pageSectors)
					zeros := make([]byte, size)
					d.writeData(base+tc.sector, zeros, keep)
					if n := d.pageCount(); n != 0 {
						t.Fatalf("a write of zeros materialized %d pages", n)
					}
					data := make([]byte, size)
					data[pos] = 1
					d.writeData(base+tc.sector, data, keep)
					wantPage := (base*geom.SectorSize + tc.sector*geom.SectorSize + int64(pos)) / pageBytes
					if ok, n := d.materialized(wantPage), d.pageCount(); !ok || n != 1 {
						t.Fatalf("non-zero byte at %d: pages %d materialized (have page %d: %v), want exactly that one",
							pos, n, wantPage, ok)
					}
					if got := d.readData(base+tc.sector, tc.sectors); !bytes.Equal(got, data) {
						t.Fatalf("non-zero byte at %d: read back differs", pos)
					}
					// Zeros over a materialized page are stored like any data.
					d.writeData(base+tc.sector, zeros, keep)
					if got := d.readData(base+tc.sector, tc.sectors); !bytes.Equal(got, zeros) {
						t.Fatalf("non-zero byte at %d: zeros did not overwrite it", pos)
					}
				}
			}
		})
	}
}

// pageOf builds one page of varied, non-zero bytes.
func pageOf(salt byte) []byte {
	b := make([]byte, pageBytes)
	for i := range b {
		b[i] = byte(i*7) ^ byte(i>>8) ^ salt | 1
	}
	return b
}

// The copy-on-write rule, one way of changing part of a shared page at a
// time: the buffer the page was lent as (or kept from) stays as it was,
// and the store holds the change. And the other side of the rule: what
// the store keeps or lends is shared, not copied, while what it copies
// is its own.
func TestSharedPageCopyOnWrite(t *testing.T) {
	const at = 64 * pageSectors // page 64
	for _, tc := range []struct {
		name string
		// change alters part of page 64 and returns what the page (16
		// sectors from at) must read as afterwards.
		change func(t *testing.T, d *Disk, old []byte) []byte
	}{
		{"partial write", func(t *testing.T, d *Disk, old []byte) []byte {
			if _, err := d.Write(0, at+3, 2, sectorFill(0x77, 2)); err != nil {
				t.Fatal(err)
			}
			want := bytes.Clone(old)
			copy(want[3*geom.SectorSize:], sectorFill(0x77, 2))
			return want
		}},
		{"partial owned write", func(t *testing.T, d *Disk, old []byte) []byte {
			// A kept payload that is not page-aligned is copied, run
			// by run: the run over page 64 is partial.
			if _, err := d.WriteOwned(0, at-5, pageSectors, sectorFill(0x66, pageSectors)); err != nil {
				t.Fatal(err)
			}
			want := bytes.Clone(old)
			copy(want, sectorFill(0x66, pageSectors-5))
			return want
		}},
		{"zero tail", func(t *testing.T, d *Disk, old []byte) []byte {
			// Two sectors of payload, then zeros to the middle of the page.
			if _, err := d.Write(0, at+2, 8, sectorFill(0x55, 2)); err != nil {
				t.Fatal(err)
			}
			want := bytes.Clone(old)
			copy(want[2*geom.SectorSize:], sectorFill(0x55, 2))
			clear(want[4*geom.SectorSize : 10*geom.SectorSize])
			return want
		}},
		{"torn prefix", func(t *testing.T, d *Disk, old []byte) []byte {
			d.SetFaults(fault.NewInjector(fault.Plan{Seed: 3, CrashAfterOps: 1}))
			if _, err := d.Write(0, at, pageSectors, sectorFill(0x44, pageSectors)); err == nil {
				t.Fatal("the write did not crash")
			}
			n := d.faults.TornBytes(pageBytes)
			d.SetFaults(nil)
			if n == 0 {
				t.Fatal("the tear landed nothing: pick another seed")
			}
			want := bytes.Clone(old)
			copy(want[:n], sectorFill(0x44, pageSectors))
			return want
		}},
	} {
		for _, how := range []string{"lent", "kept"} {
			t.Run(tc.name+" over a "+how+" page", func(t *testing.T) {
				d := MustNew(Toshiba())
				var shared []byte
				if how == "kept" {
					shared = pageOf(0x21)
					if _, err := d.WriteOwned(0, at, pageSectors, shared); err != nil {
						t.Fatal(err)
					}
				} else {
					if _, err := d.Write(0, at, pageSectors, pageOf(0x21)); err != nil {
						t.Fatal(err)
					}
					var err error
					if shared, _, err = d.Read(0, at, pageSectors); err != nil {
						t.Fatal(err)
					}
				}
				old := bytes.Clone(shared)
				want := tc.change(t, d, old)
				if !bytes.Equal(shared, old) {
					t.Fatal("the shared buffer was written in place")
				}
				if got := d.PeekData(at, pageSectors); !bytes.Equal(got, want) {
					t.Fatal("the store does not hold the change")
				}
			})
		}
	}

	t.Run("a kept payload is the page", func(t *testing.T) {
		d := MustNew(Toshiba())
		payload := pageOf(0x31)
		if _, err := d.WriteOwned(0, at, pageSectors, payload); err != nil {
			t.Fatal(err)
		}
		got, _, err := d.Read(0, at, pageSectors)
		if err != nil {
			t.Fatal(err)
		}
		if &got[0] != &payload[0] {
			t.Fatal("the read did not return the kept payload's backing array")
		}
		again, _, _ := d.Read(0, at, pageSectors)
		if &again[0] != &got[0] {
			t.Fatal("two reads of one page lent two buffers")
		}
	})
	t.Run("a copied write is the store's own", func(t *testing.T) {
		d := MustNew(Toshiba())
		scratch := pageOf(0x41)
		if _, err := d.Write(0, at, pageSectors, scratch); err != nil {
			t.Fatal(err)
		}
		want := bytes.Clone(scratch)
		for i := range scratch {
			scratch[i] = 0xEE // the writer reuses its buffer
		}
		if got := d.PeekData(at, pageSectors); !bytes.Equal(got, want) {
			t.Fatal("changing the written buffer afterwards changed the store")
		}
	})
	t.Run("PeekData returns a copy", func(t *testing.T) {
		d := MustNew(Toshiba())
		if _, err := d.WriteOwned(0, at, pageSectors, pageOf(0x51)); err != nil {
			t.Fatal(err)
		}
		peek := d.PeekData(at, pageSectors)
		lent, _, _ := d.Read(0, at, pageSectors)
		if &peek[0] == &lent[0] {
			t.Fatal("PeekData returned the page itself")
		}
		clear(peek)
		if bytes.Equal(d.PeekData(at, pageSectors), peek) {
			t.Fatal("changing what PeekData returned changed the store")
		}
	})
	t.Run("an unwritten page reads as the zero page", func(t *testing.T) {
		d := MustNew(Toshiba())
		got, _, err := d.Read(0, at, pageSectors)
		if err != nil {
			t.Fatal(err)
		}
		if &got[0] != &zeroPage[0] || d.pageCount() != 0 {
			t.Fatal("a read of an unwritten block did not lend the zero page")
		}
	})
}

// A block read overwrites every byte of what it returns with the store's
// contents — the page it lends, the zero page, or a copy assembled from
// two page runs — in the cases where most of it is zeros: a range never
// written, a block straddling a materialized and a missing page (either
// order), and a page whose only non-zero byte sits at an edge of a
// sector or of the page. (The test keeps the name it had when block
// reads were copied into recycled buffers.)
func TestReadIntoRecycledBufferMatchesReference(t *testing.T) {
	const base = 100 * pageSectors
	lone := func(pos int) []byte {
		data := make([]byte, pageBytes)
		data[pos] = 0x5A
		return data
	}
	dense := bytes.Repeat([]byte{0xC3}, pageBytes)
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
		{"lone byte at the end", 0, lone(pageBytes - 1), 0},
		{"lone byte at the end, block straddling", 0, lone(pageBytes - 1), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := MustNew(Toshiba())
			ref := newRefStore()
			if tc.data != nil {
				d.writeData(base+tc.at, tc.data, false)
				ref.write(base+tc.at, tc.data)
			}
			got, _, err := d.Read(0, base+tc.sector, pageSectors)
			if err != nil {
				t.Fatal(err)
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

// A page-aligned block read lends the page, or the zero page, so it
// costs no allocation — written and unwritten blocks in turn. (The test
// keeps the name it had when the read's buffer was handed back to a
// pool.)
func TestReadRecycleNoAlloc(t *testing.T) {
	d := MustNew(Toshiba())
	d.writeData(0, bytes.Repeat([]byte{1}, pageBytes), false)
	now, sector := 0.0, int64(0)
	n := testing.AllocsPerRun(200, func() {
		_, tm, err := d.Read(now, sector, pageSectors)
		if err != nil {
			t.Fatal(err)
		}
		now += tm.TotalMS()
		sector = (sector + pageSectors) % (4 * pageSectors)
	})
	if n != 0 {
		t.Errorf("block read: %v allocs, want 0", n)
	}
}

// A write of zeros to a page that was never materialized is the
// rebuild-onto-a-spare fast path: it must not allocate at all.
func TestZeroWriteToEmptyPageNoAlloc(t *testing.T) {
	d := MustNew(Toshiba())
	zeros := make([]byte, pageBytes)
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
	if n := d.pageCount(); n != 0 {
		t.Errorf("zero writes materialized %d pages", n)
	}
}

// A write that materializes nothing allocates no chunk of the page
// table: zeros written into a chunk no page of which is materialized —
// copied, kept, as a zero tail, poked, or across a chunk boundary —
// leave every chunk unallocated.
func TestZeroWriteAllocatesNoChunk(t *testing.T) {
	const at = 5 * chunkPages * pageSectors // the first sector of chunk 5
	zeros := make([]byte, 2*pageBytes)
	for _, tc := range []struct {
		name  string
		write func(d *Disk) error
	}{
		{"copied", func(d *Disk) error { _, err := d.Write(0, at, 2*pageSectors, zeros); return err }},
		{"kept", func(d *Disk) error { _, err := d.WriteOwned(0, at, pageSectors, zeros[:pageBytes]); return err }},
		{"zero tail", func(d *Disk) error { _, err := d.Write(0, at+3, 2*pageSectors, nil); return err }},
		{"poked", func(d *Disk) error { return d.PokeData(at+1, zeros[:5*geom.SectorSize]) }},
		{"across a chunk boundary", func(d *Disk) error {
			_, err := d.Write(0, at-pageSectors-3, 2*pageSectors, zeros)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := MustNew(Fujitsu())
			if err := tc.write(d); err != nil {
				t.Fatal(err)
			}
			if n := d.chunkCount(); n != 0 {
				t.Errorf("%d chunks allocated, want 0", n)
			}
		})
	}
}

// Keeping a payload as a page that is already materialized, and lending
// a page, only move pointers: neither allocates.
func TestWriteOwnedAndLendNoAlloc(t *testing.T) {
	d := MustNew(Toshiba())
	payloads := [][]byte{pageOf(0x11), pageOf(0x12)}
	for key := int64(0); key < 4; key++ {
		if _, err := d.WriteOwned(0, key*pageSectors, pageSectors, payloads[0]); err != nil {
			t.Fatal(err)
		}
	}
	now, key := 0.0, int64(0)
	n := testing.AllocsPerRun(200, func() {
		tm, err := d.WriteOwned(now, key*pageSectors, pageSectors, payloads[key%2])
		if err != nil {
			t.Fatal(err)
		}
		now += tm.TotalMS()
		key = (key + 1) % 4
	})
	if n != 0 {
		t.Errorf("kept write onto a materialized page: %v allocs, want 0", n)
	}
	n = testing.AllocsPerRun(200, func() {
		if b := d.lend(key*pageSectors, pageSectors); len(b) != pageBytes {
			t.Fatalf("lent %d bytes", len(b))
		}
		key = (key + 1) % 4
	})
	if n != 0 {
		t.Errorf("lend: %v allocs, want 0", n)
	}
}

// Only an owned payload is known zero by its address: a buffer handed to
// Write or PokeData is the caller's again once the call returns, so a
// write of it after the caller changed it must store what it holds now —
// even at the address of an owned payload the store found all zeros.
func TestZeroByAddressOnlyWhenOwned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(d *Disk, sector int64, buf []byte) error
	}{
		{"copied", func(d *Disk, sector int64, buf []byte) error {
			_, err := d.Write(0, sector, pageSectors, buf)
			return err
		}},
		{"poked", func(d *Disk, sector int64, buf []byte) error { return d.PokeData(sector, buf) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := MustNew(Toshiba())
			check := func(buf []byte, sector int64, owned bool) {
				t.Helper()
				if owned {
					if _, err := d.WriteOwned(0, sector, pageSectors, buf); err != nil {
						t.Fatal(err)
					}
				}
				clear(buf)
				if err := tc.write(d, sector+pageSectors, buf); err != nil {
					t.Fatal(err)
				}
				buf[pageBytes-1] = 7
				if err := tc.write(d, sector+2*pageSectors, buf); err != nil {
					t.Fatal(err)
				}
				if got := d.PeekData(sector+2*pageSectors, pageSectors); !bytes.Equal(got, buf) {
					t.Errorf("owned first %v: the changed buffer's write stored %d at its last byte, want 7", owned, got[pageBytes-1])
				}
			}
			check(make([]byte, pageBytes), 0, false)
			check(make([]byte, pageBytes), 10*pageSectors, true)
		})
	}
}
