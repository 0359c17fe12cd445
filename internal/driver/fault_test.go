package driver

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/blocktable"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// newFaultRig is newRig with a fault plan wired into both the disk and
// the driver, which switches the driver into fault-tolerant mode.
func newFaultRig(t *testing.T, plan fault.Plan) (*sim.Engine, *disk.Disk, *Driver) {
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
	start := int64(256)
	size := (lbl.VirtualSectors() - start) / 16 * 16
	if _, err := lbl.AddPartition(start, size, label.TagFS); err != nil {
		t.Fatal(err)
	}
	if err := InitDisk(dsk, lbl, geom.Block8K); err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(plan)
	dsk.SetFaults(inj)
	drv, err := Attach(eng, dsk, Config{Faults: inj}, false)
	if err != nil {
		t.Fatal(err)
	}
	return eng, dsk, drv
}

// physBlock returns the physical sector of partition block blk.
func physBlock(drv *Driver, blk int64) int64 {
	p, _ := drv.Label().Partition(0)
	return drv.Label().MapVirtual(p.Start + blk*16)
}

func TestTransientErrorsRetryAndRecover(t *testing.T) {
	// At p=0.2 with 3 retries, an operation fails outright only if four
	// consecutive draws fail (p=0.0016); with this seed none do.
	eng, _, drv := newFaultRig(t, fault.Plan{Seed: 5, TransientWrite: 0.2, TransientRead: 0.2})
	var events []telemetry.Event
	drv.SetSink(telemetry.SinkFunc(func(e *telemetry.Event) { events = append(events, *e) }))
	var failed int
	for b := int64(0); b < 30; b++ {
		drv.WriteBlock(0, b*40, blockOf(byte(b)), func(_ []byte, err error) {
			if err != nil {
				failed++
			}
		})
	}
	eng.Run()
	if failed != 0 {
		t.Fatalf("%d writes failed despite retries", failed)
	}
	c := drv.Counters()
	if c.Retries == 0 || c.Faults != c.Retries {
		t.Errorf("counters: %+v", c)
	}
	if c.Unrecovered != 0 {
		t.Errorf("unrecovered = %d", c.Unrecovered)
	}
	// Every retry waits at least retryBaseMS, so the cumulative backoff
	// is bounded below by one base delay per retry.
	if min := float64(c.Retries) * retryBaseMS; c.BackoffMS < min {
		t.Errorf("BackoffMS = %v, want >= %v for %d retries", c.BackoffMS, min, c.Retries)
	}
	var retryEvents int
	for _, e := range events {
		if e.Kind == telemetry.KindFault {
			if e.Class != "transient" || e.Action != "retry" {
				t.Errorf("fault event %+v", e)
			}
			retryEvents++
		}
	}
	if int64(retryEvents) != c.Retries {
		t.Errorf("%d retry events, %d retries counted", retryEvents, c.Retries)
	}
	if drv.Outstanding() != 0 {
		t.Errorf("Outstanding = %d", drv.Outstanding())
	}
	// The retry ladder's totals must surface in a metrics snapshot: the
	// func-backed counters resolve at snapshot time, so binding after
	// the run still exposes the lifetime values.
	reg := metrics.NewRegistry()
	drv.BindMetrics(reg)
	got := map[string]float64{}
	for _, m := range reg.Snapshot().Metrics {
		got[m.Name] = m.Value
	}
	if got["driver_retries"] != float64(c.Retries) {
		t.Errorf("driver_retries = %v, want %d", got["driver_retries"], c.Retries)
	}
	if got["driver_faults"] != float64(c.Faults) {
		t.Errorf("driver_faults = %v, want %d", got["driver_faults"], c.Faults)
	}
	if got["driver_backoff_ms"] != c.BackoffMS {
		t.Errorf("driver_backoff_ms = %v, want %v", got["driver_backoff_ms"], c.BackoffMS)
	}
	if got["driver_seek_cylinders"] != float64(drv.Disk().SeekCylinders()) {
		t.Errorf("driver_seek_cylinders = %v, want %d", got["driver_seek_cylinders"], drv.Disk().SeekCylinders())
	}
	for _, idle := range []string{"driver_queue_len", "driver_outstanding", "driver_block_table_len"} {
		if v, ok := got[idle]; !ok || v != 0 {
			t.Errorf("%s = %v (registered %v), want 0 on an idle driver", idle, v, ok)
		}
	}
}

func TestTransientBackoffAddsSimTime(t *testing.T) {
	// Every write attempt fails until retries are exhausted, so the
	// request's completion must lag by the full backoff ladder
	// (2 + 4 + 8 ms with the default base) with no mechanical time.
	eng, _, drv := newFaultRig(t, fault.Plan{Seed: 1, TransientWrite: 1})
	var doneAt float64 = -1
	var gotErr error
	drv.WriteBlock(0, 0, blockOf(1), func(_ []byte, err error) {
		doneAt, gotErr = eng.Now(), err
	})
	eng.Run()
	var fe *fault.Error
	if !errors.As(gotErr, &fe) || fe.Class != fault.Transient {
		t.Fatalf("error = %v", gotErr)
	}
	if doneAt != 2+4+8 {
		t.Errorf("failed at %v ms, want 14 (sum of backoffs)", doneAt)
	}
	if c := drv.Counters(); c.Retries != 3 || c.Unrecovered != 1 {
		t.Errorf("counters: %+v", c)
	}
}

func TestMediaWriteErrorRemaps(t *testing.T) {
	// Plan the bad range over a known data block: writes to it must be
	// remapped into a spare reserved slot, and reads must follow.
	//
	// The physical address is computed from an identical throwaway rig
	// so the plan can be set before the real one is built.
	_, _, scout := newFaultRig(t, fault.Plan{})
	badBlock := physBlock(scout, 1000)

	eng, dsk, drv := newFaultRig(t, fault.Plan{
		Bad: []fault.SectorRange{{Start: badBlock, End: badBlock + 16}},
	})
	want := blockOf(0x7A)
	var wErr error
	drv.WriteBlock(0, 1000, want, func(_ []byte, err error) { wErr = err })
	eng.Run()
	if wErr != nil {
		t.Fatalf("remapped write failed: %v", wErr)
	}
	rt := drv.RemapTable()
	if len(rt) != 1 || rt[0].Orig != badBlock {
		t.Fatalf("remap table %+v", rt)
	}
	if !drv.Label().InReserved(rt[0].Spare) {
		t.Errorf("spare %d outside the reserved region", rt[0].Spare)
	}
	if c := drv.Counters(); c.Remaps != 1 || c.Unrecovered != 0 {
		t.Errorf("counters: %+v", c)
	}
	// The data lives in the spare, and reads are redirected to it.
	if got := dsk.PeekData(rt[0].Spare, 16); !bytes.Equal(got, want) {
		t.Error("spare slot does not hold the written data")
	}
	var got []byte
	drv.ReadBlock(0, 1000, func(data []byte, err error) { got = data })
	eng.Run()
	if !bytes.Equal(got, want) {
		t.Error("read of remapped block returned wrong data")
	}
	// The arranger must not be offered the consumed spare.
	for _, cylSlots := range drv.ReservedSlots() {
		for _, s := range cylSlots {
			if s == rt[0].Spare {
				t.Fatal("spare slot still offered to the arranger")
			}
		}
	}
}

func TestMediaReadErrorPropagates(t *testing.T) {
	_, _, scout := newFaultRig(t, fault.Plan{})
	badBlock := physBlock(scout, 2000)

	eng, _, drv := newFaultRig(t, fault.Plan{
		Bad: []fault.SectorRange{{Start: badBlock, End: badBlock + 16}},
	})
	var calls int
	var gotErr error
	drv.ReadBlock(0, 2000, func(_ []byte, err error) { calls++; gotErr = err })
	eng.Run()
	var fe *fault.Error
	if calls != 1 || !errors.As(gotErr, &fe) || fe.Class != fault.Media {
		t.Fatalf("calls=%d err=%v", calls, gotErr)
	}
	if c := drv.Counters(); c.Unrecovered != 1 {
		t.Errorf("counters: %+v", c)
	}
	// The device survives: other blocks still work.
	var okErr error
	drv.ReadBlock(0, 3000, func(_ []byte, err error) { okErr = err })
	eng.Run()
	if okErr != nil {
		t.Errorf("read of healthy block after media error: %v", okErr)
	}
	if drv.Outstanding() != 0 {
		t.Errorf("Outstanding = %d", drv.Outstanding())
	}
}

func TestCrashKillsDeviceAndDrainsQueue(t *testing.T) {
	eng, _, drv := newFaultRig(t, fault.Plan{CrashAfterOps: 3})
	var errs []error
	for b := int64(0); b < 5; b++ {
		drv.WriteBlock(0, b*10, blockOf(byte(b)), func(_ []byte, err error) {
			errs = append(errs, err)
		})
	}
	eng.Run()
	if len(errs) != 5 {
		t.Fatalf("%d completions, want 5", len(errs))
	}
	var crashed int
	for _, err := range errs {
		if errors.Is(err, fault.ErrCrash) {
			crashed++
		}
	}
	if crashed != 3 {
		t.Errorf("%d of 5 requests crashed, want 3 (op 3 plus 2 queued)", crashed)
	}
	if !drv.Dead() {
		t.Fatal("driver not dead after power loss")
	}
	if drv.Outstanding() != 0 {
		t.Errorf("Outstanding = %d", drv.Outstanding())
	}
	// Requests issued after the crash fail immediately with ErrDead.
	var lateErr error
	drv.ReadBlock(0, 0, func(_ []byte, err error) { lateErr = err })
	eng.Run()
	if !errors.Is(lateErr, fault.ErrCrash) {
		t.Errorf("post-crash request: %v", lateErr)
	}
}

func TestDualSlotTableWritesAlternate(t *testing.T) {
	eng, dsk, drv := newFaultRig(t, fault.Plan{})
	slots := drv.ReservedSlots()
	var moveErr error
	drv.BCopy(physBlock(drv, 100), slots[0][0], func(err error) { moveErr = err })
	eng.Run()
	if moveErr != nil {
		t.Fatal(moveErr)
	}
	resStart := drv.Label().ReservedStart
	ss := slotSectors(geom.Block8K)
	slotA := dsk.PeekData(resStart, ss)
	slotB := dsk.PeekData(resStart+int64(ss), ss)
	// Generation 1 went to slot B; slot A still holds the initial
	// generation-0 empty table.
	a, errA := bt1(slotA)
	b, errB := bt1(slotB)
	if errA != nil || a != 0 {
		t.Errorf("slot A: gen=%d err=%v", a, errA)
	}
	if errB != nil || b != 1 {
		t.Errorf("slot B: gen=%d err=%v", b, errB)
	}
	drv.BCopy(physBlock(drv, 200), slots[0][1], func(err error) { moveErr = err })
	eng.Run()
	if moveErr != nil {
		t.Fatal(moveErr)
	}
	if a, errA = bt1(dsk.PeekData(resStart, ss)); errA != nil || a != 2 {
		t.Errorf("slot A after second move: gen=%d err=%v", a, errA)
	}
	// A fresh attach picks the highest-generation slot.
	drv2, err := Attach(sim.NewEngine(), dsk, Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if drv2.BlockTableLen() != 2 {
		t.Errorf("re-attached table has %d entries, want 2", drv2.BlockTableLen())
	}
}

// bt1 decodes a table slot image and returns its generation.
func bt1(img []byte) (uint64, error) {
	tbl, err := blocktable.Decode(img)
	if err != nil {
		return 0, err
	}
	return tbl.Gen, nil
}

func TestLegacyModeStillWritesFullPrefix(t *testing.T) {
	// Without an injector the driver must keep the original single-image
	// table write, so zero-fault runs stay byte- and timing-identical.
	eng, dsk, drv := newRig(t)
	slots := drv.ReservedSlots()
	var moveErr error
	drv.BCopy(physBlock(drv, 100), slots[0][0], func(err error) { moveErr = err })
	eng.Run()
	if moveErr != nil {
		t.Fatal(moveErr)
	}
	tbl, err := blocktable.Decode(dsk.PeekData(drv.Label().ReservedStart, slotSectors(geom.Block8K)))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Gen != 0 || tbl.Len() != 1 {
		t.Errorf("legacy table: gen=%d len=%d", tbl.Gen, tbl.Len())
	}
}

// TestDoneExactlyOnceOnFailure exercises the error delivery contract of
// every failing entry point: done fires exactly once, with the error,
// and the driver returns to idle.
func TestDoneExactlyOnceOnFailure(t *testing.T) {
	_, _, scout := newFaultRig(t, fault.Plan{})
	badBlock := physBlock(scout, 500)

	eng, _, drv := newFaultRig(t, fault.Plan{
		Bad: []fault.SectorRange{{Start: badBlock, End: badBlock + 16}},
	})
	count := func(n *int, e *error) DoneFunc {
		return func(_ []byte, err error) { *n++; *e = err }
	}

	// Validation failure in blockIO.
	var nBad int
	var errBad error
	drv.ReadBlock(7, 0, count(&nBad, &errBad))
	// Validation failure in Physio.
	var nRaw int
	var errRaw error
	drv.Physio(false, -1, 16, nil, count(&nRaw, &errRaw))
	// Device failure inside a multi-piece Physio: the raw read spans
	// three blocks, the middle one bad.
	p, _ := drv.Label().Partition(0)
	vbad := p.Start + 500*16
	var nDev int
	var errDev error
	drv.Physio(false, vbad-16, 48, nil, count(&nDev, &errDev))
	eng.Run()

	if nBad != 1 || errBad == nil {
		t.Errorf("blockIO validation: %d calls, err=%v", nBad, errBad)
	}
	if nRaw != 1 || errRaw == nil {
		t.Errorf("Physio validation: %d calls, err=%v", nRaw, errRaw)
	}
	var fe *fault.Error
	if nDev != 1 || !errors.As(errDev, &fe) {
		t.Errorf("Physio device error: %d calls, err=%v", nDev, errDev)
	}
	if drv.Outstanding() != 0 {
		t.Errorf("Outstanding = %d", drv.Outstanding())
	}
}
