package volume

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/fault"
)

// TestParityPropertyPrograms is the randomized parity battery over a
// fixed list of seeds; FuzzParityPrograms feeds the same program
// arbitrary ones.
func TestParityPropertyPrograms(t *testing.T) {
	seeds := 28
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { parityProgram(t, seed) })
	}
}

func FuzzParityPrograms(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(parityProgram)
}

// parityProgram is one seed of the randomized parity battery: it builds
// a RAID-5 or RAID-6 volume with randomized geometry, spares, scrub,
// and planned member deaths within the parity budget, runs a random
// interleaved write/read program across the failures (including
// mid-rebuild spare death and mid-scrub member death) — with zero
// payloads among the writes, and most of them landing in rows nothing
// has written yet — and asserts
// every acknowledged write reads back byte-identical after the dust
// settles. The seed and its derived configuration are logged so a
// failure is reproducible verbatim.
func parityProgram(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	layout, npar := RAID5, 1
	if seed%2 == 0 {
		layout, npar = RAID6, 2
	}
	disks := 2 + npar + rng.Intn(3) // raid5: 3..5, raid6: 4..6
	unit := []int{1, 2, 4}[rng.Intn(3)]
	spare := rng.Intn(2)
	kills := rng.Intn(npar + 1)
	scrub := rng.Intn(3) == 0
	// Discarded draws: dropping them would shift every later draw
	// and so change the kill/spare program each seed has pinned.
	if rng.Intn(3) == 0 {
		rng.Intn(3)
	}
	faults := make([]*fault.Plan, disks+spare)
	for k := 0; k < kills; k++ {
		m := rng.Intn(disks)
		for faults[m] != nil {
			m = (m + 1) % disks
		}
		faults[m] = &fault.Plan{CrashAfterOps: int64(5 + rng.Intn(400))}
	}
	spareDies := false
	if spare == 1 && kills > 0 && rng.Intn(3) == 0 {
		// Mid-rebuild spare death: the copy starts, then the
		// target disappears under it.
		faults[disks] = &fault.Plan{CrashAfterOps: int64(10 + rng.Intn(150))}
		spareDies = true
	}
	opts := Options{
		Layout: layout, Disks: disks, Spare: spare, StripeUnit: unit,
		Disk: tinyDisk(), RebuildRate: 500 + float64(rng.Intn(1500)),
		Faults: faults,
	}
	if scrub {
		opts.ScrubIntervalMS = 50_000
	}
	v := mustNew(t, opts)
	defer v.Close()
	if scrub && !v.StartScrub() {
		t.Fatal("StartScrub refused")
	}
	t.Logf("seed=%d layout=%s disks=%d unit=%d spare=%d kills=%d scrub=%v spareDies=%v rate=%g",
		seed, layout, disks, unit, spare, kills, scrub, spareDies, opts.RebuildRate)

	shadow := make(map[int64][]byte)
	var wErrs, rErrs []error
	nops := 150 + rng.Intn(150)
	for op := 0; op < nops; op++ {
		if rng.Intn(10) < 7 {
			blk := rng.Int63n(v.Blocks())
			b := byte(rng.Intn(256))
			if rng.Intn(8) == 0 {
				b = 0 // a zero block, the identity of parity arithmetic
			}
			data := blockOf(b)
			v.WriteBlock(0, blk, data, func(_ []byte, err error) {
				if err != nil {
					wErrs = append(wErrs, err)
					return
				}
				shadow[blk] = data
			})
		} else {
			v.ReadBlock(0, rng.Int63n(v.Blocks()), func(_ []byte, err error) {
				if err != nil {
					rErrs = append(rErrs, err)
				}
			})
		}
		if rng.Intn(4) == 0 {
			v.Eng.RunUntil(v.Eng.Now() + float64(rng.Intn(40)))
		}
	}
	// Drain everything, including any rebuild in flight. With the
	// scrub ticker armed the engine is never quiescent, so advance
	// far enough for foreground + rebuild + a full pass instead.
	if scrub {
		v.Eng.RunUntil(v.Eng.Now() + 600_000)
	} else {
		v.Run()
	}

	// Deaths stayed within the parity budget, so no request may
	// have failed.
	if len(wErrs) > 0 || len(rErrs) > 0 {
		t.Fatalf("requests failed within parity budget: writes=%v reads=%v", wErrs, rErrs)
	}
	// A healthy spare must have rebuilt the first death.
	if st := v.RAID(); spare == 1 && !spareDies && kills > 0 && v.DeadMembers() > 0 {
		if st.RebuildsStarted == 0 || st.RebuildsDone == 0 {
			t.Fatalf("dead member with healthy spare, but rebuild counters %+v", st)
		}
	}
	// Every acknowledged write reads back byte-identical.
	blks := make([]int64, 0, len(shadow))
	for blk := range shadow {
		blks = append(blks, blk)
	}
	sort.Slice(blks, func(i, j int) bool { return blks[i] < blks[j] })
	for _, blk := range blks {
		var got []byte
		var gerr error
		fired := false
		v.ReadBlock(0, blk, func(d []byte, err error) { got, gerr, fired = d, err, true })
		if scrub {
			v.Eng.RunUntil(v.Eng.Now() + 30_000)
		} else {
			v.Run()
		}
		if !fired {
			t.Fatalf("verify read of block %d never completed", blk)
		}
		if gerr != nil {
			t.Fatalf("verify read of block %d: %v", blk, gerr)
		}
		if !bytes.Equal(got, shadow[blk]) {
			t.Fatalf("block %d: reconstructed data differs from last acknowledged write", blk)
		}
	}
}
