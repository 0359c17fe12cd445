package volume

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/fault"
)

// TestParityReadsBackWhatAStripeDoes is a metamorphic relation between
// layouts: a stripe of three members, a RAID-5 of four and a RAID-6 of
// five have the same data capacity, and one seeded program of writes —
// distinct payloads, zero blocks and rewrites — must leave every logical
// block reading back byte-equal on all three. The parity volumes must
// keep reading back the stripe's bytes after losing what their parity
// covers (one member on RAID-5, two on RAID-6) and again once a hot
// spare has rebuilt the first loss.
func TestParityReadsBackWhatAStripeDoes(t *testing.T) {
	stripe := mustNew(t, Options{Layout: Stripe, Disks: 3, StripeUnit: 2, Disk: tinyDisk()})
	r5 := mustNew(t, Options{Layout: RAID5, Disks: 4, Spare: 1, StripeUnit: 2, Disk: tinyDisk()})
	r6 := mustNew(t, Options{Layout: RAID6, Disks: 5, Spare: 1, StripeUnit: 2, Disk: tinyDisk()})
	vols := []*Volume{stripe, r5, r6}
	n := stripe.Blocks()
	for _, v := range vols[1:] {
		if v.Blocks() != n {
			t.Fatalf("%s holds %d blocks, the stripe %d", v.Layout(), v.Blocks(), n)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for op := 0; op < 1500; op++ {
		blk := rng.Int63n(n)
		data := make([]byte, stripe.BlockSize().Bytes())
		if rng.Intn(5) > 0 {
			rng.Read(data)
		}
		for _, v := range vols {
			if err := write(t, v, blk, data); err != nil {
				t.Fatalf("%s: write of block %d: %v", v.Layout(), blk, err)
			}
		}
	}

	want := readAll(t, stripe)
	check := func(phase string, v *Volume) {
		t.Helper()
		for blk, got := range readAll(t, v) {
			if !bytes.Equal(got, want[blk]) {
				t.Fatalf("%s, %s: block %d differs from the stripe's", v.Layout(), phase, blk)
			}
		}
	}
	for _, v := range vols[1:] {
		check("fault-free", v)
	}

	kill := func(v *Volume, members ...int) {
		for _, m := range members {
			v.Members[m].Disk.SetFaults(fault.NewInjector(fault.Plan{CrashAfterOps: 1}))
		}
	}
	kill(r5, 1)
	kill(r6, 1, 3)
	for _, v := range vols[1:] {
		check("members lost", v)
		if v.RAID().DegradedReads == 0 || v.RAID().RebuildsDone != 1 {
			t.Fatalf("%s: counters %+v: want degraded reads and one rebuild", v.Layout(), v.RAID())
		}
		check("rebuilt", v)
	}
}

// readAll reads every block of v in one batch, so the reads overlap
// each other and any rebuild they set off, and returns them by block.
func readAll(t *testing.T, v *Volume) [][]byte {
	t.Helper()
	out := make([][]byte, v.Blocks())
	for blk := range out {
		v.ReadBlock(0, int64(blk), func(data []byte, err error) {
			if err != nil {
				t.Fatalf("%s: read of block %d: %v", v.Layout(), blk, err)
			}
			out[blk] = data
		})
	}
	v.Eng.Run()
	return out
}
