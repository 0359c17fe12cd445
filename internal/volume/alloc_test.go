package volume

import (
	"testing"

	"repro/internal/fault"
)

// Allocation regression tests for the volume request round trip,
// extending the driver's battery one layer up. The budget:
//
//   - writes: 0 allocations on stripe and mirror — the vreq comes from
//     the volume's pool with its fan-in callbacks prebuilt, the mirror
//     fan-out target list reuses volume-level scratch, and the member
//     drivers are allocation-free on writes; a parity small write
//     allocates its new parity, 1 block on RAID-5 and 2 on RAID-6,
//     because the members keep what they are written;
//   - reads: 0 allocations — the member disk lends the block's page,
//     which the volume passes up untouched.
//
// These floors are what lets a volume-scale run spend its
// wall-clock on events rather than garbage; the closures the volume
// used to build per request (finish wrapper, mirror failover chain,
// per-member write fan-in) dominated its allocation profile.

// steadyState measures allocations per op after a warm-up that grows
// the pools, queues, heaps and disk pages the access pattern touches.
func steadyState(t *testing.T, v *Volume, op func()) float64 {
	t.Helper()
	for i := 0; i < 64; i++ {
		op()
	}
	return testing.AllocsPerRun(500, op)
}

func TestStripeWriteRoundTripZeroAllocs(t *testing.T) {
	v := mustNew(t, Options{Layout: Stripe, Disks: 4})
	data := blockOf(0x5a)
	done := func(_ []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	blk := int64(0)
	if n := steadyState(t, v, func() {
		v.WriteBlock(0, blk%64, data, done)
		blk++
		v.Run()
	}); n != 0 {
		t.Errorf("stripe write round trip: %v allocs, want 0", n)
	}
}

// (The read floors below keep the names they had when every read
// allocated its buffer; the floor is zero.)
func TestStripeReadRoundTripOneAlloc(t *testing.T) {
	v := mustNew(t, Options{Layout: Stripe, Disks: 4})
	data := blockOf(0x5a)
	for k := int64(0); k < 64; k++ {
		if err := write(t, v, k, data); err != nil {
			t.Fatal(err)
		}
	}
	done := func(got []byte, err error) {
		if err != nil || len(got) == 0 {
			t.Fatal("bad read completion")
		}
	}
	blk := int64(0)
	if n := steadyState(t, v, func() {
		v.ReadBlock(0, blk%64, done)
		blk++
		v.Run()
	}); n != 0 {
		t.Errorf("stripe read round trip: %v allocs, want 0", n)
	}
}

func TestMirrorWriteRoundTripZeroAllocs(t *testing.T) {
	v := mustNew(t, Options{Layout: Mirror, Disks: 2})
	data := blockOf(0x5a)
	done := func(_ []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	blk := int64(0)
	if n := steadyState(t, v, func() {
		v.WriteBlock(0, blk%64, data, done)
		blk++
		v.Run()
	}); n != 0 {
		t.Errorf("mirror write round trip: %v allocs, want 0 (fan-out shares one pooled record)", n)
	}
}

// A RAID small write allocates only its new parity: the
// read-modify-write cycle pulls old data, P (and Q) off the member
// disks — lent, never written to — and folds the data delta into one
// fresh buffer per parity, which the parity member keeps. The request
// record, per-slot callbacks and row locks are pooled.
func TestRAID5WriteRoundTripAllocFloor(t *testing.T) {
	v := mustNew(t, Options{Layout: RAID5, Disks: 4, StripeUnit: 4})
	data := blockOf(0x5a)
	done := func(_ []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	blk := int64(0)
	if n := steadyState(t, v, func() {
		v.WriteBlock(0, blk%64, data, done)
		blk++
		v.Run()
	}); n > 1 {
		t.Errorf("raid5 write round trip: %v allocs, want at most 1 (the new P)", n)
	}
}

func TestRAID6WriteRoundTripAllocFloor(t *testing.T) {
	v := mustNew(t, Options{Layout: RAID6, Disks: 5, StripeUnit: 4})
	data := blockOf(0x5a)
	done := func(_ []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	blk := int64(0)
	if n := steadyState(t, v, func() {
		v.WriteBlock(0, blk%64, data, done)
		blk++
		v.Run()
	}); n > 2 {
		t.Errorf("raid6 write round trip: %v allocs, want at most 2 (the new P and Q)", n)
	}
}

func TestRAID5ReadRoundTripOneAlloc(t *testing.T) {
	// A healthy parity read is a plain single-member read: one
	// allocation for the returned buffer, nothing for parity.
	v := mustNew(t, Options{Layout: RAID5, Disks: 4, StripeUnit: 4})
	data := blockOf(0x5a)
	for k := int64(0); k < 64; k++ {
		if err := write(t, v, k, data); err != nil {
			t.Fatal(err)
		}
	}
	done := func(got []byte, err error) {
		if err != nil || len(got) == 0 {
			t.Fatal("bad read completion")
		}
	}
	blk := int64(0)
	if n := steadyState(t, v, func() {
		v.ReadBlock(0, blk%64, done)
		blk++
		v.Run()
	}); n != 0 {
		t.Errorf("raid5 read round trip: %v allocs, want 0", n)
	}
}

func TestMirrorReadRoundTripOneAlloc(t *testing.T) {
	// Shortest-queue exercises the policy sort as well; it must stay
	// allocation-free too.
	v := mustNew(t, Options{Layout: Mirror, Disks: 2, ReadPolicy: ShortestQueue})
	data := blockOf(0x5a)
	for k := int64(0); k < 64; k++ {
		if err := write(t, v, k, data); err != nil {
			t.Fatal(err)
		}
	}
	done := func(got []byte, err error) {
		if err != nil || len(got) == 0 {
			t.Fatal("bad read completion")
		}
	}
	blk := int64(0)
	if n := steadyState(t, v, func() {
		v.ReadBlock(0, blk%64, done)
		blk++
		v.Run()
	}); n != 0 {
		t.Errorf("mirror read round trip: %v allocs, want 0", n)
	}
}

// Reads of written and never-written blocks on every layout, every
// buffer kept by the caller, allocate nothing either. (The test keeps
// the name it had when a zero floor needed the caller to hand each
// buffer back.)
func TestReadRecycleRoundTripZeroAllocs(t *testing.T) {
	for _, opts := range []Options{
		{Layout: Stripe, Disks: 4},
		{Layout: Mirror, Disks: 2, ReadPolicy: ShortestQueue},
		{Layout: RAID5, Disks: 4, StripeUnit: 4},
	} {
		t.Run(string(opts.Layout), func(t *testing.T) {
			v := mustNew(t, opts)
			for k := int64(0); k < 64; k += 2 {
				if err := write(t, v, k, blockOf(0x5a)); err != nil {
					t.Fatal(err)
				}
			}
			kept := make([][]byte, 0, 1024)
			blk := int64(0)
			done := func(got []byte, err error) {
				want := byte(0)
				if blk%2 == 0 {
					want = 0x5a
				}
				if err != nil || len(got) == 0 || got[0] != want {
					t.Fatal("bad read completion")
				}
				kept = append(kept, got)
			}
			if n := steadyState(t, v, func() {
				v.ReadBlock(0, blk%64, done)
				v.Run()
				blk++
			}); n != 0 {
				t.Errorf("%s read round trip, buffers kept: %v allocs, want 0", opts.Layout, n)
			}
		})
	}
}

// A retired parity request references no buffer: its row reads, its
// columns, its new parity and every slot of its scratch list — not
// only the ones in use — are cleared, so the record pool pins no block
// once nothing recycles buffers. Degraded reads and writes of a RAID-6
// with one member dead fill every one of them.
func TestRetiredRecordHoldsNoBuffer(t *testing.T) {
	v := mustNew(t, Options{Layout: RAID6, Disks: 5, StripeUnit: 1,
		Faults: []*fault.Plan{nil, {CrashAfterOps: 20}}})
	for k := int64(0); k < 60; k++ {
		if err := write(t, v, k, blockOf(byte(k+1))); err != nil {
			t.Fatal(err)
		}
		if _, err := read(t, v, k/2); err != nil {
			t.Fatal(err)
		}
	}
	if v.DeadMembers() != 1 || v.RAID().DegradedReads == 0 {
		t.Fatalf("%d members dead, %d degraded reads: the requests were meant to reconstruct",
			v.DeadMembers(), v.RAID().DegradedReads)
	}
	records := 0
	for r := v.ra.freeReq; r != nil; r = r.next {
		records++
		refs := r.data != nil || r.newP != nil || r.newQ != nil
		for _, b := range append(append(r.bufs[:len(r.bufs):len(r.bufs)], r.colv...), r.pool[:cap(r.pool)]...) {
			refs = refs || b != nil
		}
		if refs {
			t.Fatalf("a retired record still references a buffer")
		}
	}
	if records == 0 {
		t.Fatal("no retired records to check")
	}
}

// Background repair allocates only what the members keep. A rebuild
// step allocates the one block the spare keeps — a recomputed parity,
// or the solved column handed off the scratch list — and a scrub step
// over a clean row allocates nothing: the record, its callbacks, the
// row lock and the expected-parity scratch are pooled, and the next
// step's callback is prebuilt. Both chains run on the engine, so a
// step is measured as the engine time until its mark moves.
func backgroundSteps(t *testing.T, v *Volume, mark func() int64, by int64, running func() bool) float64 {
	t.Helper()
	step := func() {
		n := mark()
		for mark() < n+by {
			if !running() {
				t.Fatal("the pass ended inside the measurement")
			}
			v.Eng.RunUntil(v.Eng.Now() + 1)
		}
	}
	for i := 0; i < 20; i++ {
		step()
	}
	return testing.AllocsPerRun(100, step)
}

func TestRebuildStepAllocFloor(t *testing.T) {
	v := mustNew(t, Options{Layout: RAID5, Disks: 3, Spare: 1, StripeUnit: 1, Disk: tinyDisk(),
		Faults: []*fault.Plan{nil, {CrashAfterOps: 10}}})
	// The writes kill member 1; the rebuild starts as one of them
	// observes the death.
	for k := int64(0); k < 40; k++ {
		v.WriteBlock(0, k, blockOf(byte(k+1)), nil)
	}
	for !v.Rebuilding() {
		v.Eng.RunUntil(v.Eng.Now() + 1)
	}
	rebuilt := func() int64 { return v.RAID().RebuiltBlocks }
	n := backgroundSteps(t, v, rebuilt, 1, v.Rebuilding)
	t.Logf("rebuild step: %v allocs", n)
	if n > 1 {
		t.Errorf("rebuild step: %v allocs, want at most 1 (the block the spare keeps)", n)
	}
}

func TestScrubCleanRowZeroAllocs(t *testing.T) {
	v := mustNew(t, Options{Layout: RAID5, Disks: 3, StripeUnit: 1, Disk: tinyDisk(),
		ScrubIntervalMS: 1000})
	defer v.Close()
	for k := int64(0); k < 40; k++ {
		if err := write(t, v, k, blockOf(byte(k+1))); err != nil {
			t.Fatal(err)
		}
	}
	if !v.StartScrub() {
		t.Fatal("StartScrub refused")
	}
	for !v.ra.scrubbing {
		v.Eng.RunUntil(v.Eng.Now() + 1)
	}
	// A clean scrub step reads every member once.
	reads := func() (n int64) {
		for _, m := range v.Members {
			n += m.Driver.Counters().Requests
		}
		return n
	}
	n := backgroundSteps(t, v, reads, int64(len(v.Members)), func() bool { return v.ra.scrubbing })
	t.Logf("clean scrub step: %v allocs", n)
	if n != 0 {
		t.Errorf("clean scrub step: %v allocs, want 0", n)
	}
	if st := v.RAID(); st.ScrubPasses == 0 || st.ScrubRepairs != 0 {
		t.Fatalf("scrub counters %+v: want a pass over clean rows", st)
	}
}
