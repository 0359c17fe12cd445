package driver

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/disk"
	"repro/internal/geom"
	"repro/internal/label"
	"repro/internal/sim"
)

// newRig builds a rearranged Toshiba disk with one file system partition
// covering the whole virtual disk, attaches a driver, and returns both.
func newRig(t testing.TB) (*sim.Engine, *disk.Disk, *Driver) {
	t.Helper()
	eng := sim.NewEngine()
	dsk := disk.MustNew(disk.Toshiba())
	firstCyl, err := label.AlignedFirstCyl(dsk.Geom(), 16, (dsk.Geom().Cylinders-48)/2)
	if err != nil {
		t.Fatal(err)
	}
	lbl, err := label.NewRearrangedAt("test0", dsk.Geom(), firstCyl, 48)
	if err != nil {
		t.Fatal(err)
	}
	// Partition starts at block 16 (sector 256) to keep the label sector
	// out of block 0's way; size is the rest of the virtual disk,
	// rounded down to whole blocks.
	start := int64(256)
	size := (lbl.VirtualSectors() - start) / 16 * 16
	if _, err := lbl.AddPartition(start, size, label.TagFS); err != nil {
		t.Fatal(err)
	}
	if err := InitDisk(dsk, lbl, geom.Block8K); err != nil {
		t.Fatal(err)
	}
	drv, err := Attach(eng, dsk, Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	return eng, dsk, drv
}

func blockOf(b byte) []byte { return bytes.Repeat([]byte{b}, geom.Block8K.Bytes()) }

func TestAttachReadsLabel(t *testing.T) {
	_, _, drv := newRig(t)
	if !drv.Rearranged() {
		t.Fatal("driver did not detect rearranged disk")
	}
	if drv.BlockTableLen() != 0 {
		t.Errorf("fresh disk has %d rearranged blocks", drv.BlockTableLen())
	}
	first, count := drv.Label().ReservedCyls()
	// 380 is the largest block-aligned first cylinder at or below the
	// exact center (383).
	if count != 48 || first != 380 {
		t.Errorf("reserved cylinders = (%d, %d)", first, count)
	}
}

func TestAttachRejectsUnlabeledDisk(t *testing.T) {
	eng := sim.NewEngine()
	dsk := disk.MustNew(disk.Toshiba())
	if _, err := Attach(eng, dsk, Config{}, false); err == nil {
		t.Fatal("attach to unlabeled disk succeeded")
	}
}

func TestBlockReadWrite(t *testing.T) {
	eng, _, drv := newRig(t)
	want := blockOf(0x42)
	var wroteErr, readErr error
	var got []byte
	drv.WriteBlock(0, 100, want, func(_ []byte, err error) { wroteErr = err })
	eng.Run()
	drv.ReadBlock(0, 100, func(data []byte, err error) { got, readErr = data, err })
	eng.Run()
	if wroteErr != nil || readErr != nil {
		t.Fatalf("errors: write=%v read=%v", wroteErr, readErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read returned different data")
	}
}

func TestBlockAddressValidation(t *testing.T) {
	eng, _, drv := newRig(t)
	var errs []error
	collect := func(_ []byte, err error) { errs = append(errs, err) }
	drv.ReadBlock(5, 0, collect)             // no such partition
	drv.ReadBlock(0, -1, collect)            // negative block
	drv.ReadBlock(0, 1<<40, collect)         // beyond partition
	drv.WriteBlock(0, 0, []byte{1}, collect) // short data
	eng.Run()
	if len(errs) != 4 {
		t.Fatalf("got %d completions, want 4", len(errs))
	}
	for i, err := range errs {
		if err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
}

func TestVirtualMappingAvoidsReserved(t *testing.T) {
	eng, dsk, drv := newRig(t)
	lbl := drv.Label()
	// Write every 500th block of the partition; verify no write landed
	// in the reserved region by checking the reserved sectors stay zero.
	p, _ := lbl.Partition(0)
	nblocks := p.Size / 16
	for b := int64(0); b < nblocks; b += 500 {
		drv.WriteBlock(0, b, blockOf(0xEE), nil)
	}
	eng.Run()
	res := dsk.PeekData(lbl.ReservedStart+int64(TableSectors(geom.Block8K)), 64)
	for _, by := range res {
		if by != 0 {
			t.Fatal("file system write landed in the reserved region")
		}
	}
}

func TestBCopyRedirectsRequests(t *testing.T) {
	eng, dsk, drv := newRig(t)
	lbl := drv.Label()
	p, _ := lbl.Partition(0)

	// Write a marker block through the fs interface.
	drv.WriteBlock(0, 10, blockOf(0xAB), nil)
	eng.Run()

	orig := lbl.MapVirtual(p.Start + 10*16)
	slots := drv.ReservedSlots()
	dst := slots[0][0]
	var cpErr error
	drv.BCopy(orig, dst, func(err error) { cpErr = err })
	eng.Run()
	if cpErr != nil {
		t.Fatal(cpErr)
	}
	if drv.BlockTableLen() != 1 {
		t.Fatalf("table has %d entries", drv.BlockTableLen())
	}
	// The reserved slot now holds the data.
	if got := dsk.PeekData(dst, 16); got[0] != 0xAB {
		t.Fatal("reserved copy does not hold block data")
	}
	// A write through the fs goes to the reserved copy, not the original.
	drv.WriteBlock(0, 10, blockOf(0xCD), nil)
	eng.Run()
	if got := dsk.PeekData(dst, 16); got[0] != 0xCD {
		t.Fatal("write was not redirected to the reserved copy")
	}
	if got := dsk.PeekData(orig, 16); got[0] != 0xAB {
		t.Fatal("write modified the original location")
	}
	// Reads see the new data.
	var read []byte
	drv.ReadBlock(0, 10, func(data []byte, err error) { read = data })
	eng.Run()
	if read[0] != 0xCD {
		t.Fatal("read did not return redirected data")
	}
}

func TestBCopyValidation(t *testing.T) {
	eng, _, drv := newRig(t)
	lbl := drv.Label()
	slots := drv.ReservedSlots()
	dst := slots[0][0]
	check := func(name string, orig, d int64) {
		t.Helper()
		var got error
		drv.BCopy(orig, d, func(err error) { got = err })
		eng.Run()
		if got == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	check("misaligned orig", 7, dst)
	check("misaligned dst", 160, dst+1)
	check("orig in reserved", lbl.ReservedStart+int64(TableSectors(geom.Block8K)), dst)
	check("dst outside reserved", 160, 320)
	check("dst inside table prefix", 160, lbl.ReservedStart)
	// A valid copy, then a duplicate.
	var err1 error
	drv.BCopy(160, dst, func(err error) { err1 = err })
	eng.Run()
	if err1 != nil {
		t.Fatalf("valid copy failed: %v", err1)
	}
	check("duplicate orig", 160, slots[0][1])
	check("occupied dst", 320, dst)
}

func TestCleanRestoresDirtyBlocks(t *testing.T) {
	eng, dsk, drv := newRig(t)
	lbl := drv.Label()
	p, _ := lbl.Partition(0)

	drv.WriteBlock(0, 10, blockOf(0x11), nil)
	drv.WriteBlock(0, 20, blockOf(0x22), nil)
	eng.Run()
	orig10 := lbl.MapVirtual(p.Start + 10*16)
	orig20 := lbl.MapVirtual(p.Start + 20*16)
	slots := drv.ReservedSlots()
	drv.BCopy(orig10, slots[0][0], nil)
	drv.BCopy(orig20, slots[0][1], nil)
	eng.Run()

	// Dirty block 10 through the driver; leave block 20 clean.
	drv.WriteBlock(0, 10, blockOf(0x99), nil)
	eng.Run()

	var cleanErr error
	drv.Clean(func(err error) { cleanErr = err })
	eng.Run()
	if cleanErr != nil {
		t.Fatal(cleanErr)
	}
	if drv.BlockTableLen() != 0 {
		t.Fatalf("table still has %d entries after clean", drv.BlockTableLen())
	}
	// Dirty data copied back to the original location.
	if got := dsk.PeekData(orig10, 16); got[0] != 0x99 {
		t.Fatal("dirty block not restored to original location")
	}
	if got := dsk.PeekData(orig20, 16); got[0] != 0x22 {
		t.Fatal("clean block's original location corrupted")
	}
	// Reads now come from the original locations.
	var read []byte
	drv.ReadBlock(0, 10, func(data []byte, err error) { read = data })
	eng.Run()
	if read[0] != 0x99 {
		t.Fatal("post-clean read returned stale data")
	}
}

func TestBlockTableSurvivesReattach(t *testing.T) {
	eng, dsk, drv := newRig(t)
	lbl := drv.Label()
	p, _ := lbl.Partition(0)
	drv.WriteBlock(0, 10, blockOf(0x77), nil)
	eng.Run()
	orig := lbl.MapVirtual(p.Start + 10*16)
	drv.BCopy(orig, drv.ReservedSlots()[0][0], nil)
	eng.Run()

	// "Reboot": attach a fresh driver to the same disk.
	drv2, err := Attach(sim.NewEngine(), dsk, Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if drv2.BlockTableLen() != 1 {
		t.Fatalf("reattached driver sees %d entries", drv2.BlockTableLen())
	}
}

func TestCrashRecoveryMarksDirty(t *testing.T) {
	eng, dsk, drv := newRig(t)
	lbl := drv.Label()
	p, _ := lbl.Partition(0)
	drv.WriteBlock(0, 10, blockOf(0x55), nil)
	eng.Run()
	orig := lbl.MapVirtual(p.Start + 10*16)
	dst := drv.ReservedSlots()[0][0]
	drv.BCopy(orig, dst, nil)
	eng.Run()

	// Write to the rearranged block; the in-memory dirty bit is set but
	// the on-disk table still says clean. Then "crash".
	drv.WriteBlock(0, 10, blockOf(0x66), nil)
	eng.Run()

	eng2 := sim.NewEngine()
	drv2, err := Attach(eng2, dsk, Config{}, true) // recovery path
	if err != nil {
		t.Fatal(err)
	}
	var cleanErr error
	drv2.Clean(func(err error) { cleanErr = err })
	eng2.Run()
	if cleanErr != nil {
		t.Fatal(cleanErr)
	}
	// Because recovery marked the block dirty, the update must have been
	// copied back.
	if got := dsk.PeekData(orig, 16); got[0] != 0x66 {
		t.Fatal("update to repositioned block lost after crash recovery")
	}
}

func TestNonRecoveryAttachWouldLoseUpdate(t *testing.T) {
	// Companion to the recovery test: without the conservative path, the
	// stale on-disk clean bit loses the update — demonstrating why the
	// paper's driver marks everything dirty after a failure.
	eng, dsk, drv := newRig(t)
	lbl := drv.Label()
	p, _ := lbl.Partition(0)
	drv.WriteBlock(0, 10, blockOf(0x55), nil)
	eng.Run()
	orig := lbl.MapVirtual(p.Start + 10*16)
	drv.BCopy(orig, drv.ReservedSlots()[0][0], nil)
	eng.Run()
	drv.WriteBlock(0, 10, blockOf(0x66), nil)
	eng.Run()

	eng2 := sim.NewEngine()
	drv2, err := Attach(eng2, dsk, Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	drv2.Clean(nil)
	eng2.Run()
	if got := dsk.PeekData(orig, 16); got[0] == 0x66 {
		t.Skip("update survived; disk layout changed — recovery test covers the invariant")
	}
}

func TestPhysioSplitsAndReassembles(t *testing.T) {
	eng, _, drv := newRig(t)
	lbl := drv.Label()
	p, _ := lbl.Partition(0)

	// Rearrange block 10 so a large raw read straddles a rearranged and
	// a plain block.
	drv.WriteBlock(0, 10, blockOf(0xAA), nil)
	drv.WriteBlock(0, 11, blockOf(0xBB), nil)
	eng.Run()
	orig := lbl.MapVirtual(p.Start + 10*16)
	drv.BCopy(orig, drv.ReservedSlots()[0][0], nil)
	eng.Run()

	// Raw read spanning blocks 10 and 11, starting mid-block.
	start := p.Start + 10*16 + 8
	var got []byte
	drv.Physio(false, start, 16, nil, func(data []byte, err error) {
		if err != nil {
			t.Errorf("physio: %v", err)
		}
		got = data
	})
	eng.Run()
	if len(got) != 16*geom.SectorSize {
		t.Fatalf("physio returned %d bytes", len(got))
	}
	// First 8 sectors from block 10 (0xAA), next 8 from block 11 (0xBB).
	if got[0] != 0xAA || got[8*geom.SectorSize] != 0xBB {
		t.Fatalf("physio data wrong: %x %x", got[0], got[8*geom.SectorSize])
	}
}

func TestPhysioWrite(t *testing.T) {
	eng, _, drv := newRig(t)
	p, _ := drv.Label().Partition(0)
	data := bytes.Repeat([]byte{0x3C}, 40*geom.SectorSize)
	var werr error
	drv.Physio(true, p.Start+100*16, 40, data, func(_ []byte, err error) { werr = err })
	eng.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	var got []byte
	drv.Physio(false, p.Start+100*16, 40, nil, func(d []byte, err error) { got = d })
	eng.Run()
	if !bytes.Equal(got, data) {
		t.Fatal("physio write/read mismatch")
	}
}

func TestPhysioValidation(t *testing.T) {
	eng, _, drv := newRig(t)
	var errs []error
	collect := func(_ []byte, err error) { errs = append(errs, err) }
	drv.Physio(false, -1, 16, nil, collect)
	drv.Physio(false, 0, 0, nil, collect)
	drv.Physio(false, drv.Label().VirtualSectors(), 16, nil, collect)
	drv.Physio(true, 0, 16, []byte{1, 2}, collect)
	eng.Run()
	if len(errs) != 4 {
		t.Fatalf("%d completions, want 4", len(errs))
	}
	for i, err := range errs {
		if err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRequestsDelayedDuringMove(t *testing.T) {
	eng, _, drv := newRig(t)
	lbl := drv.Label()
	p, _ := lbl.Partition(0)
	drv.WriteBlock(0, 10, blockOf(0x10), nil)
	eng.Run()
	orig := lbl.MapVirtual(p.Start + 10*16)

	// Start a copy and immediately issue a read for the same block; the
	// read must complete after the copy and return consistent data.
	var copyDone, readDone float64
	var read []byte
	drv.BCopy(orig, drv.ReservedSlots()[0][0], func(err error) {
		if err != nil {
			t.Errorf("bcopy: %v", err)
		}
		copyDone = eng.Now()
	})
	drv.ReadBlock(0, 10, func(data []byte, err error) {
		read = data
		readDone = eng.Now()
	})
	eng.Run()
	if readDone < copyDone {
		t.Errorf("read (t=%v) completed before move (t=%v)", readDone, copyDone)
	}
	if read[0] != 0x10 {
		t.Error("delayed read returned wrong data")
	}
}

// blockSector is the original physical sector of newRig's partition-0
// block b: what the request table records for it.
func blockSector(drv *Driver, b int64) int64 { return drv.Label().MapVirtual(256 + b*16) }

// The request table holds each request's original sector in arrival
// order, reads and writes alike, and a read clears it.
func TestRequestMonitoring(t *testing.T) {
	eng, _, drv := newRig(t)
	drv.SetRequestTableSize(16)
	if n := drv.RequestTableSize(); n != 16 {
		t.Fatalf("table size %d, want 16", n)
	}
	drv.ReadBlock(0, 5, nil)
	drv.WriteBlock(0, 6, blockOf(1), nil)
	drv.ReadBlock(0, 5, nil)
	eng.Run()
	sectors, missed := drv.ReadRequestTable()
	want := []int64{blockSector(drv, 5), blockSector(drv, 6), blockSector(drv, 5)}
	if !slices.Equal(sectors, want) || missed != 0 {
		t.Errorf("table %v, %d missed; want %v, none missed", sectors, missed, want)
	}
	if sectors, missed := drv.ReadRequestTable(); len(sectors) != 0 || missed != 0 {
		t.Errorf("table not cleared: %v, %d missed", sectors, missed)
	}
}

// A full table suspends recording: the requests past its capacity are
// counted as missed, not recorded, until a read clears it.
func TestRequestMonitoringSuspendsWhenFull(t *testing.T) {
	eng, _, drv := newRig(t)
	drv.SetRequestTableSize(4)
	for i := int64(0); i < 10; i++ {
		drv.ReadBlock(0, i, nil)
	}
	eng.Run()
	sectors, missed := drv.ReadRequestTable()
	want := []int64{blockSector(drv, 0), blockSector(drv, 1), blockSector(drv, 2), blockSector(drv, 3)}
	if !slices.Equal(sectors, want) || missed != 6 {
		t.Errorf("table %v, %d missed; want %v, 6 missed", sectors, missed, want)
	}
	drv.ReadBlock(0, 9, nil)
	eng.Run()
	if sectors, missed := drv.ReadRequestTable(); !slices.Equal(sectors, []int64{blockSector(drv, 9)}) || missed != 0 {
		t.Errorf("after a read: table %v, %d missed; want block 9's sector, none missed", sectors, missed)
	}
}

// A driver keeps no table until its analyzer sets one, and keeps none
// again once the analyzer drops it: without a table nothing is recorded
// and nothing is counted missed.
func TestNoRequestTableRecordsNothing(t *testing.T) {
	eng, _, drv := newRig(t)
	traffic := func() {
		for i := int64(0); i < 10; i++ {
			drv.ReadBlock(0, i, nil)
		}
		drv.WriteBlock(0, 3, blockOf(1), nil)
		eng.Run()
	}
	none := func(when string) {
		t.Helper()
		sectors, missed := drv.ReadRequestTable()
		if drv.RequestTableSize() != 0 || sectors != nil || missed != 0 {
			t.Errorf("%s: size %d, table %v, %d missed; want nothing",
				when, drv.RequestTableSize(), sectors, missed)
		}
	}
	traffic()
	none("before a table is set")
	drv.SetRequestTableSize(4)
	traffic()
	if sectors, missed := drv.ReadRequestTable(); len(sectors) != 4 || missed != 7 {
		t.Fatalf("with a 4-entry table: %d sectors, %d missed; want 4 and 7", len(sectors), missed)
	}
	drv.ReadBlock(0, 0, nil)
	eng.Run()
	drv.SetRequestTableSize(0)
	none("after the table is dropped")
	traffic()
	none("traffic after the table is dropped")
}

func TestStatsRecorded(t *testing.T) {
	eng, _, drv := newRig(t)
	for i := int64(0); i < 20; i++ {
		drv.ReadBlock(0, i*137, nil)
	}
	drv.WriteBlock(0, 3000, blockOf(9), nil)
	eng.Run()
	st := drv.ReadStats()
	if st.ReadSide.Count() != 20 {
		t.Errorf("read count = %d", st.ReadSide.Count())
	}
	if st.WriteSide.Count() != 1 {
		t.Errorf("write count = %d", st.WriteSide.Count())
	}
	if st.ReadSide.MeanServiceMS() <= 0 {
		t.Error("no service time recorded")
	}
	if st.ReadSide.SchedDist.Count() != 20 {
		t.Errorf("sched dist count = %d", st.ReadSide.SchedDist.Count())
	}
	// FCFS distances: one per arrival after the first (the write's
	// arrival consumes one gap in its own side).
	all := st.All()
	if got := all.FCFSDist.Count(); got != 20 {
		t.Errorf("total FCFS gaps = %d, want 20", got)
	}
	// Clearing works.
	if drv.PeekStats().ReadSide.Count() != 0 {
		t.Error("ReadStats did not clear")
	}
}

func TestInternalOpsNotCounted(t *testing.T) {
	eng, _, drv := newRig(t)
	drv.SetRequestTableSize(64)
	drv.WriteBlock(0, 10, blockOf(1), nil)
	eng.Run()
	orig := drv.Label().MapVirtual(256 + 10*16)
	drv.ReadStats()        // clear fs traffic
	drv.ReadRequestTable() // and the monitoring table
	drv.BCopy(orig, drv.ReservedSlots()[0][0], nil)
	eng.Run()
	st := drv.PeekStats()
	if n := st.All().Count(); n != 0 {
		t.Errorf("block movement recorded %d requests in stats", n)
	}
	if recs, _ := drv.ReadRequestTable(); len(recs) != 0 {
		t.Errorf("block movement recorded %d requests in monitor", len(recs))
	}
}

func TestQueueingUnderBurst(t *testing.T) {
	eng, _, drv := newRig(t)
	// Issue a burst of 50 requests at t=0; later arrivals must wait.
	for i := int64(0); i < 50; i++ {
		drv.ReadBlock(0, i*211, nil)
	}
	eng.Run()
	st := drv.ReadStats()
	if st.ReadSide.MeanQueueingMS() <= 0 {
		t.Error("burst produced no queueing time")
	}
	if st.ReadSide.MeanQueueingMS() < st.ReadSide.MeanServiceMS() {
		t.Error("burst queueing should exceed single service time on average")
	}
}

func TestSCANReordersBurst(t *testing.T) {
	// With SCAN, total seek distance over a burst must not exceed FCFS.
	eng, _, drv := newRig(t)
	for i := int64(0); i < 100; i++ {
		// Alternate far-apart cylinders so FCFS is terrible.
		blk := (i % 2) * 30000
		drv.ReadBlock(0, blk+i, nil)
	}
	eng.Run()
	st := drv.ReadStats()
	sched := st.ReadSide.SchedDist.MeanDist()
	fcfs := st.ReadSide.FCFSDist.MeanDist()
	if sched >= fcfs {
		t.Errorf("SCAN mean dist %v >= FCFS %v", sched, fcfs)
	}
}

func TestAttachRejectsMisalignedReservedRegion(t *testing.T) {
	// Regression test: cylinder 383 × 340 sectors = 130220 is not 8K
	// aligned, so a virtual file system block would straddle the
	// reserved region's start — overlapping the on-disk block table.
	// Attach must refuse such a label rather than corrupt data.
	eng := sim.NewEngine()
	dsk := disk.MustNew(disk.Toshiba())
	lbl, err := label.NewRearrangedAt("bad", dsk.Geom(), 383, 48)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lbl.AddPartition(16, 160000, label.TagFS); err != nil {
		t.Fatal(err)
	}
	if err := InitDisk(dsk, lbl, geom.Block8K); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(eng, dsk, Config{}, false); err == nil {
		t.Fatal("attach accepted a misaligned reserved region")
	}
}

func TestBoundaryBlocksDoNotTouchBlockTable(t *testing.T) {
	// With an aligned region, writing every block around the mapping
	// discontinuity must leave the on-disk block table intact across a
	// re-attach.
	eng, _, drv := newRig(t)
	lbl := drv.Label()
	bsec := int64(16)
	boundaryBlock := lbl.ReservedStart / bsec // virtual block just below the region
	p, _ := lbl.Partition(0)
	for b := boundaryBlock - 3; b <= boundaryBlock+3; b++ {
		blk := b - p.Start/bsec
		if blk < 0 || (blk+1)*bsec > p.Size {
			continue
		}
		var werr error
		drv.WriteBlock(0, blk, blockOf(0xDD), func(_ []byte, err error) { werr = err })
		eng.Run()
		if werr != nil {
			t.Fatalf("block %d: %v", blk, werr)
		}
	}
	// Install one mapping so the table is non-trivial, then re-attach.
	drv.BCopy(160, drv.ReservedSlots()[0][0], nil)
	eng.Run()
	drv2, err := Attach(sim.NewEngine(), drv.Disk(), Config{}, false)
	if err != nil {
		t.Fatalf("re-attach after boundary writes: %v", err)
	}
	if drv2.BlockTableLen() != 1 {
		t.Errorf("block table lost entries: %d", drv2.BlockTableLen())
	}
}
