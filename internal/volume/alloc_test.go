package volume

import (
	"testing"

	"repro/internal/driver"
)

// Allocation regression tests for the volume request round trip,
// extending the driver's battery one layer up. The budget:
//
//   - writes: 0 allocations — the vreq comes from the volume's pool
//     with its fan-in callbacks prebuilt, the mirror fan-out target
//     list reuses volume-level scratch, and the member drivers are
//     already allocation-free on writes;
//   - reads: 1 allocation when the caller keeps the data — the member
//     disk hands over a buffer (ownership transfer to the caller), same
//     as a single-disk read — and 0 when the caller gives it back with
//     driver.Recycle; the volume adds nothing either way.
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
	}); n > 1 {
		t.Errorf("stripe read round trip: %v allocs, want at most 1 (the data buffer)", n)
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

// RAID parity writes are allocation-free too: the read-modify-write
// cycle pulls old data, P (and Q) off the member disks, folds the
// deltas into those very buffers, and — being their last owner — hands
// them back to the pool the next member read takes them from. The
// request record, per-slot callbacks and row locks are pooled as well.
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
	}); n != 0 {
		t.Errorf("raid5 write round trip: %v allocs, want 0 (old data + old parity buffers are recycled)", n)
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
	}); n != 0 {
		t.Errorf("raid6 write round trip: %v allocs, want 0 (old data + old P + old Q buffers are recycled)", n)
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
	}); n > 1 {
		t.Errorf("raid5 read round trip: %v allocs, want at most 1 (the data buffer)", n)
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
	}); n > 1 {
		t.Errorf("mirror read round trip: %v allocs, want at most 1 (the data buffer)", n)
	}
}

// The recycling twins of the three read floors: a caller that hands
// the delivered buffer back reads for nothing, on every layout.
func TestReadRecycleRoundTripZeroAllocs(t *testing.T) {
	for _, opts := range []Options{
		{Layout: Stripe, Disks: 4},
		{Layout: Mirror, Disks: 2, ReadPolicy: ShortestQueue},
		{Layout: RAID5, Disks: 4, StripeUnit: 4},
	} {
		t.Run(string(opts.Layout), func(t *testing.T) {
			v := mustNew(t, opts)
			for k := int64(0); k < 64; k++ {
				if err := write(t, v, k, blockOf(0x5a)); err != nil {
					t.Fatal(err)
				}
			}
			done := func(got []byte, err error) {
				if err != nil || len(got) == 0 || got[0] != 0x5a {
					t.Fatal("bad read completion")
				}
				driver.Recycle(got)
			}
			blk := int64(0)
			if n := steadyState(t, v, func() {
				v.ReadBlock(0, blk%64, done)
				blk++
				v.Run()
			}); n != 0 {
				t.Errorf("%s read round trip with the buffer recycled: %v allocs, want 0", opts.Layout, n)
			}
		})
	}
}
