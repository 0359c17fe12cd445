package driver

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/blocktable"
	"repro/internal/geom"
)

// Allocation regression tests for the request round trip. The budget:
//
//   - writes: 0 allocations — the ioreq comes from the driver's pool,
//     the completion event is the ioreq itself (sim.Caller), the device
//     queue and its cylinder slice reuse their backing arrays, and the
//     disk keeps the payload as the block's page;
//   - a dispatch from a deep queue: 0 allocations — the scheduler picks
//     from the cylinder slice in place;
//   - reads: 0 allocations — the disk lends the block's page (or the
//     zero page), which the completion passes on, read-only;
//   - a BCopy: no new page — the reserved copy is the original's page.
//
// These bounds keep per-event closures and container/heap-style boxing
// from silently returning to the hot path.

func TestWriteRoundTripZeroAllocs(t *testing.T) {
	eng, _, drv := newRig(t)
	data := blockOf(0x5a)
	done := func(_ []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: grows the request pool, queue, heap backing array, the
	// histogram buckets this access pattern touches, and the disk pages
	// backing the block.
	for i := 0; i < 64; i++ {
		drv.WriteBlock(0, 100, data, done)
		eng.Run()
	}
	if n := testing.AllocsPerRun(500, func() {
		drv.WriteBlock(0, 100, data, done)
		eng.Run()
	}); n != 0 {
		t.Errorf("write round trip: %v allocs, want 0", n)
	}
}

// 256 writes queued behind a busy device and drained: every dispatch
// picks from a 256-deep queue or less, and none allocates.
func TestDispatchFromDeepQueueZeroAllocs(t *testing.T) {
	eng, _, drv := newRig(t)
	blocks := randomBlocks(drv, 256, 1)
	done := func(int) DoneFunc { return nil }
	for i := 0; i < 4; i++ { // warm the queue, the pool and the pages
		queued(drv, blocks, done)
		eng.Run()
	}
	if n := testing.AllocsPerRun(20, func() {
		queued(drv, blocks, done)
		if drv.QueueLen() != 256 {
			t.Fatalf("QueueLen = %d, want 256", drv.QueueLen())
		}
		eng.Run()
	}); n != 0 {
		t.Errorf("256-deep queue drained: %v allocs, want 0", n)
	}
}

// A read of a written block returns the page the write left in the
// store, and costs nothing. (The test keeps the name it had when every
// read allocated its buffer; the floor is zero.)
func TestReadRoundTripOneAlloc(t *testing.T) {
	eng, _, drv := newRig(t)
	data := blockOf(0x5a)
	werr := error(nil)
	drv.WriteBlock(0, 100, data, func(_ []byte, err error) { werr = err })
	eng.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	done := func(got []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if &got[0] != &data[0] {
			t.Fatal("the read did not return the page the write left")
		}
	}
	for i := 0; i < 64; i++ {
		drv.ReadBlock(0, 100, done)
		eng.Run()
	}
	if n := testing.AllocsPerRun(500, func() {
		drv.ReadBlock(0, 100, done)
		eng.Run()
	}); n != 0 {
		t.Errorf("read round trip: %v allocs, want 0", n)
	}
}

// Reads of written and never-written blocks in turn, every buffer kept
// by the caller: still nothing allocated. (The test keeps the name it
// had when a zero floor needed the caller to hand each buffer back.)
func TestReadRecycleRoundTripZeroAllocs(t *testing.T) {
	eng, _, drv := newRig(t)
	var werr error
	drv.WriteBlock(0, 100, blockOf(0x5a), func(_ []byte, err error) { werr = err })
	eng.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	kept := make([][]byte, 0, 2*(64+500+1))
	blk := int64(100)
	done := func(got []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		want := byte(0)
		if blk == 100 {
			want = 0x5a
		}
		if got[0] != want {
			t.Fatal("read returned the wrong data")
		}
		kept = append(kept, got)
	}
	op := func() {
		drv.ReadBlock(0, blk, done)
		eng.Run()
		blk = 300 - blk // 100, 200, 100, ...
	}
	for i := 0; i < 64; i++ {
		op()
	}
	if n := testing.AllocsPerRun(500, op); n != 0 {
		t.Errorf("read round trip, buffers kept: %v allocs, want 0", n)
	}
	for _, b := range kept {
		if b[0] != 0x5a && b[0] != 0 {
			t.Fatal("a kept read buffer changed")
		}
	}
}

// BCopy gives a block a second address, not a second copy of its bytes:
// the reserved copy is the page the original's read lent, and reads
// redirected to it return that page.
func TestBCopyNewPageless(t *testing.T) {
	eng, _, drv := newRig(t)
	p, _ := drv.Label().Partition(0)
	drv.WriteBlock(0, 10, blockOf(0xAB), nil)
	var before, after []byte
	drv.ReadBlock(0, 10, func(data []byte, _ error) { before = data })
	eng.Run()
	var cpErr error
	drv.BCopy(drv.Label().MapVirtual(p.Start+10*16), drv.ReservedSlots()[0][0], func(err error) { cpErr = err })
	eng.Run()
	if cpErr != nil {
		t.Fatal(cpErr)
	}
	drv.ReadBlock(0, 10, func(data []byte, _ error) { after = data })
	eng.Run()
	if &after[0] != &before[0] {
		t.Fatal("the reserved copy is a new page")
	}
}

// The block-table write that ends a move is copied into the store: the
// driver reuses its encoding scratch for the next table write, so changing the scratch
// after a write has completed must change nothing on disk. The table is
// made larger than a page so that a write keeping its payload would keep
// some of the scratch as pages.
func TestTableWriteCopiesScratch(t *testing.T) {
	eng, dsk, drv := newRig(t)
	var slots []int64
	for _, cyl := range drv.ReservedSlots() {
		slots = append(slots, cyl...)
	}
	for i, slot := range slots[:600] {
		if err := drv.bt.Add(int64(i)*16, slot); err != nil {
			t.Fatal(err)
		}
	}
	var werr error
	drv.BCopy(blockSector(drv, 5000), slots[600], func(err error) { werr = err })
	eng.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	if len(drv.tableBuf) <= geom.Block8K.Bytes() {
		t.Fatalf("table image is %d bytes, want more than a page", len(drv.tableBuf))
	}
	slot := dsk.PeekData(drv.tableAt, tableSectors(geom.Block8K))
	for i := range drv.tableBuf[:cap(drv.tableBuf)] {
		drv.tableBuf[:cap(drv.tableBuf)][i] = 0xEE
	}
	if !bytes.Equal(dsk.PeekData(drv.tableAt, tableSectors(geom.Block8K)), slot) {
		t.Fatal("changing the table scratch changed the table on disk")
	}
	if _, err := blocktable.Decode(slot); err != nil {
		t.Fatal(err)
	}
}

// The request table is double-buffered: once both tables have grown to
// a poll's worth of records, recording and reading them allocate
// nothing, and what a read returned stays intact until the next read.
func TestReadRequestTableZeroAllocs(t *testing.T) {
	eng, _, drv := newRig(t)
	drv.SetRequestTableSize(64)
	poll := func() {
		for b := int64(0); b < 8; b++ {
			drv.ReadBlock(0, b*40, nil)
		}
		eng.Run()
	}
	for i := 0; i < 4; i++ { // warm both tables and the request pool
		poll()
		drv.ReadRequestTable()
	}
	if n := testing.AllocsPerRun(100, func() {
		poll()
		if sectors, _ := drv.ReadRequestTable(); len(sectors) != 8 {
			t.Fatalf("%d sectors, want 8", len(sectors))
		}
	}); n != 0 {
		t.Errorf("poll of the request table: %v allocs, want 0", n)
	}
	poll()
	sectors, _ := drv.ReadRequestTable()
	want := make([]int64, 8)
	for b := range want {
		want[b] = blockSector(drv, int64(b)*40)
	}
	if !slices.Equal(sectors, want) {
		t.Fatalf("table %v, want %v", sectors, want)
	}
	drv.WriteBlock(0, 7, blockOf(1), nil)
	eng.Run()
	if !slices.Equal(sectors, want) {
		t.Error("recording changed the table the last read returned")
	}
}

// A night's block moves allocate nothing per block once the pools are
// warm: each move is a pooled record stepping through pooled requests
// on a callback bound once, and the table image reuses its scratch.
// Half the copies are written to before the clean-out, so it takes the
// dirty path too. A cycle allocates one thing, whatever its size:
// Clean's snapshot of the entries. The block table's arrays keep their
// capacity through the clean-out (Table.Remove moves entries down in
// place), so the next copy-in does not regrow them.
func TestMoveCycleAllocsPerBlock(t *testing.T) {
	eng, _, drv := newRig(t)
	var slots []int64
	for _, cyl := range drv.ReservedSlots() {
		slots = append(slots, cyl...)
	}
	data := blockOf(0x3c)
	var n, i int
	var copied, cleaned ErrFunc
	copied = func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		if i++; i < n {
			drv.BCopy(blockSector(drv, int64(i)*50), slots[i], copied)
		}
	}
	cleaned = func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	cycle := func() {
		i = 0
		drv.BCopy(blockSector(drv, 0), slots[0], copied)
		eng.Run()
		for b := 0; b < n; b += 2 {
			drv.WriteBlock(0, int64(b)*50, data, nil)
		}
		eng.Run()
		drv.Clean(cleaned)
		eng.Run()
	}
	perCycle := func(blocks int) float64 {
		n = blocks
		for w := 0; w < 3; w++ { // warm the pools and the table scratch
			cycle()
		}
		return testing.AllocsPerRun(5, cycle)
	}
	few, many := perCycle(32), perCycle(256)
	if few > 1 || many > 1 {
		t.Errorf("a cycle of 32 moves allocates %v, of 256 moves %v: want one, Clean's snapshot of the entries",
			few, many)
	}
}
