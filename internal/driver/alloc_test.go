package driver

import "testing"

// Allocation regression tests for the request round trip. The budget:
//
//   - writes: 0 allocations — the ioreq comes from the driver's pool,
//     the completion event is the ioreq itself (sim.Caller), the
//     scheduler candidates and device queue reuse their backing arrays,
//     and the disk stores into already-allocated pages;
//   - reads: 1 allocation when the caller keeps the data — the disk
//     model hands over a buffer, which the completion passes to the
//     caller (ownership transfer; the driver cannot reuse it) — and 0
//     when the caller, as last owner, gives it back with Recycle.
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
		if len(got) == 0 {
			t.Fatal("read returned no data")
		}
	}
	for i := 0; i < 64; i++ {
		drv.ReadBlock(0, 100, done)
		eng.Run()
	}
	if n := testing.AllocsPerRun(500, func() {
		drv.ReadBlock(0, 100, done)
		eng.Run()
	}); n > 1 {
		t.Errorf("read round trip: %v allocs, want at most 1 (the returned data buffer)", n)
	}
}

func TestReadRecycleRoundTripZeroAllocs(t *testing.T) {
	eng, _, drv := newRig(t)
	var werr error
	drv.WriteBlock(0, 100, blockOf(0x5a), func(_ []byte, err error) { werr = err })
	eng.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	done := func(got []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || got[0] != 0x5a {
			t.Fatal("read returned the wrong data")
		}
		Recycle(got)
	}
	for i := 0; i < 64; i++ {
		drv.ReadBlock(0, 100, done)
		eng.Run()
	}
	if n := testing.AllocsPerRun(500, func() {
		drv.ReadBlock(0, 100, done)
		eng.Run()
	}); n != 0 {
		t.Errorf("read round trip with the buffer recycled: %v allocs, want 0", n)
	}
}
