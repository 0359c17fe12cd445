// The conformance battery applied to every BlockDevice in the tree:
// the single-disk driver and all five volume layouts.
package devtest

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/rig"
	"repro/internal/volume"
)

// driverHarness builds the single-disk device: a full rig with a
// centered reserved region, like the paper's deployment.
func driverHarness(t *testing.T, kill bool) *Harness {
	t.Helper()
	opts := rig.Options{ReservedCyls: 48}
	if kill {
		opts.Fault = &fault.Plan{CrashAfterOps: 1}
	}
	r, err := rig.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Driver.Label().Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	h := &Harness{
		Dev:         r.Driver,
		Run:         r.Eng.Run,
		Blocks:      p.Size / int64(r.Driver.BlockSize().Sectors()),
		DeadIsFatal: true,
	}
	if kill {
		h.Kill = func() {
			// The first device operation trips the power loss; the
			// sacrificial request's own error is the crash, not ErrDead.
			r.Driver.WriteBlock(0, 0, make([]byte, r.Driver.BlockSize().Bytes()), nil)
			r.Eng.Run()
			if !r.Driver.Dead() {
				t.Fatal("kill hook did not kill the driver")
			}
		}
	}
	return h
}

// volumeHarness builds a volume device harness. The kill plan crashes
// member 1 on its first device operation; deadBlk locates a block that
// member serves. overwhelm lists additional members the Overwhelm hook
// kills to push losses beyond a redundant layout's budget; they get
// lazier crash plans the normal battery traffic cannot trip.
func volumeHarness(t *testing.T, opts volume.Options, kill bool, deadBlk func(v *volume.Volume) int64, overwhelm ...int) *Harness {
	t.Helper()
	if kill {
		opts.Faults = make([]*fault.Plan, opts.Disks)
		opts.Faults[1] = &fault.Plan{CrashAfterOps: 1}
		for _, m := range overwhelm {
			opts.Faults[m] = &fault.Plan{CrashAfterOps: 64}
		}
	}
	v, err := volume.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	redundant := opts.Layout == volume.Mirror ||
		opts.Layout == volume.RAID5 || opts.Layout == volume.RAID6
	h := &Harness{
		Dev:         v,
		Run:         v.Run,
		Blocks:      v.Blocks(),
		DeadIsFatal: !redundant,
	}
	if kill {
		h.DeadBlock = deadBlk(v)
		h.Kill = func() {
			// Sacrificial writes until the fault plan has tripped; on a
			// mirror the fan-out reaches the doomed member on the first
			// write even when DeadBlock data was seeded beforehand.
			for i := 0; i < 4 && !v.Members[1].Driver.Dead(); i++ {
				v.WriteBlock(0, h.DeadBlock, make([]byte, v.BlockSize().Bytes()), nil)
				v.Run()
			}
			if !v.Members[1].Driver.Dead() {
				t.Fatal("kill hook did not kill member 1")
			}
		}
		if len(overwhelm) > 0 {
			h.Overwhelm = func() {
				// Raw member traffic trips each lazy plan without going
				// through the (still redundant) volume.
				for _, m := range overwhelm {
					drv := v.Members[m].Driver
					for i := 0; i < 128 && !drv.Dead(); i++ {
						drv.ReadBlock(0, 0, nil)
						v.Run()
					}
					if !drv.Dead() {
						t.Fatalf("overwhelm hook did not kill member %d", m)
					}
				}
			}
		}
	}
	return h
}

func TestDriverConformance(t *testing.T) {
	TestDevice(t, driverHarness)
}

func TestConcatConformance(t *testing.T) {
	TestDevice(t, func(t *testing.T, kill bool) *Harness {
		return volumeHarness(t, volume.Options{Layout: volume.Concat, Disks: 2}, kill,
			func(v *volume.Volume) int64 { return v.Blocks() - 1 })
	})
}

func TestStripeConformance(t *testing.T) {
	TestDevice(t, func(t *testing.T, kill bool) *Harness {
		return volumeHarness(t, volume.Options{Layout: volume.Stripe, Disks: 2, StripeUnit: 1}, kill,
			func(v *volume.Volume) int64 { return 1 })
	})
}

func TestMirrorConformance(t *testing.T) {
	TestDevice(t, func(t *testing.T, kill bool) *Harness {
		return volumeHarness(t, volume.Options{Layout: volume.Mirror, Disks: 2}, kill,
			func(v *volume.Volume) int64 { return 0 }, 0)
	})
}

// RAID-5 on 3 members, one-block stripe units. Block 1 lands on data
// slot 1 of row 0 (parity rotates onto slot 2 there), so killing
// member 1 forces reconstruction for that block; killing member 0 as
// well exceeds the single-parity budget.
func TestRAID5Conformance(t *testing.T) {
	TestDevice(t, func(t *testing.T, kill bool) *Harness {
		return volumeHarness(t, volume.Options{Layout: volume.RAID5, Disks: 3, StripeUnit: 1}, kill,
			func(v *volume.Volume) int64 { return 1 }, 0)
	})
}

// The same array with a hot spare on small members: the Kill hook's Run
// drains only once the dead member is rebuilt onto the spare, so the
// battery's post-kill checks (degraded-then-healthy reads, payload
// immutability) cover a whole rebuild.
func TestRAID5SpareConformance(t *testing.T) {
	small := disk.Toshiba()
	small.Geom.Cylinders = 40
	TestDevice(t, func(t *testing.T, kill bool) *Harness {
		h := volumeHarness(t, volume.Options{Layout: volume.RAID5, Disks: 3, StripeUnit: 1, Spare: 1, Disk: small}, kill,
			func(v *volume.Volume) int64 { return 1 })
		if kill {
			v, killMember := h.Dev.(*volume.Volume), h.Kill
			h.Kill = func() {
				killMember()
				if st := v.RAID(); st.RebuildsDone != 1 {
					t.Fatalf("kill hook did not carry a rebuild through: %+v", st)
				}
			}
		}
		return h
	})
}

// RAID-6 on 4 members: row 0 puts P on slot 3, Q on slot 0, data
// columns on slots 1 and 2. Block 0 lives on member 1; with member 1
// dead the layout still covers another loss, so overwhelming takes
// two more members (2 and 3).
func TestRAID6Conformance(t *testing.T) {
	TestDevice(t, func(t *testing.T, kill bool) *Harness {
		return volumeHarness(t, volume.Options{Layout: volume.RAID6, Disks: 4, StripeUnit: 1}, kill,
			func(v *volume.Volume) int64 { return 0 }, 2, 3)
	})
}
