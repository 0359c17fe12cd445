package volume

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/disk"
	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/rig"
	"repro/internal/seek"
	"repro/internal/sim"
)

// tinyDisk is a deliberately small drive model (~340 member blocks)
// so whole-device sweeps — rebuild onto a spare, scrub passes — stay
// cheap enough to run to completion in unit tests.
func tinyDisk() disk.Model {
	return disk.Model{
		Name: "tiny",
		Geom: geom.Geometry{
			Cylinders: 40, TracksPerCyl: 4, SectorsPerTrack: 34, RPM: 3600,
		},
		Seek:         seek.ToshibaMK156F,
		OverheadMS:   2.0,
		HeadSwitchMS: 1.0,
	}
}

func TestRAIDAddressing(t *testing.T) {
	for _, opts := range []Options{
		{Layout: RAID5, Disks: 4, StripeUnit: 2, Disk: tinyDisk()},
		{Layout: RAID6, Disks: 5, StripeUnit: 3, Disk: tinyDisk()},
	} {
		v := mustNew(t, opts)
		ra := v.ra
		if ra == nil {
			t.Fatalf("%s: no parity machinery", opts.Layout)
		}
		if want := ra.per * int64(ra.ndata); v.Blocks() != want {
			t.Errorf("%s: Blocks() = %d, want per(%d)*ndata(%d)", opts.Layout, v.Blocks(), ra.per, ra.ndata)
		}
		// Parity rotates over every slot; data slots fill the rest.
		seenP := make(map[int]bool)
		for row := int64(0); row < int64(2*ra.nslots); row++ {
			p, q := ra.parSlots(row)
			seenP[p] = true
			if q == p || (q >= 0) != ra.dbl {
				t.Fatalf("%s row %d: q slot %d, p slot %d", opts.Layout, row, q, p)
			}
			for c := 0; c < ra.ndata; c++ {
				s := ra.dataSlot(row, c)
				if s < 0 || s == p || s == q {
					t.Fatalf("%s row %d col %d: bad data slot %d", opts.Layout, row, c, s)
				}
				if got := ra.colOfSlot(row, s); got != c {
					t.Fatalf("%s row %d: colOfSlot(dataSlot(%d)) = %d", opts.Layout, row, c, got)
				}
			}
			if ra.colOfSlot(row, p) != -1 || (q >= 0 && ra.colOfSlot(row, q) != -1) {
				t.Fatalf("%s row %d: parity slot claims a column", opts.Layout, row)
			}
		}
		if len(seenP) != ra.nslots {
			t.Errorf("%s: parity visited %d of %d slots", opts.Layout, len(seenP), ra.nslots)
		}
		// addr is a bijection back onto the logical space.
		for _, blk := range []int64{0, 1, v.unit - 1, v.unit, 7 * v.unit, v.Blocks() - 1} {
			row, col, mb := ra.addr(blk)
			back := (row*int64(ra.ndata)+int64(col))*ra.unit + (mb - row*ra.unit)
			if back != blk {
				t.Errorf("%s: addr(%d) = (%d,%d,%d) maps back to %d", opts.Layout, blk, row, col, mb, back)
			}
		}
	}
}

func TestGFField(t *testing.T) {
	// g must generate the multiplicative group: 255 distinct powers.
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		seen[gfPow(i)] = true
	}
	if len(seen) != 255 {
		t.Fatalf("generator cycle covers %d elements, want 255", len(seen))
	}
	for a := 1; a < 256; a++ {
		if got := gfMul(byte(a), gfDiv(1, byte(a))); got != 1 {
			t.Fatalf("a * a^-1 = %d for a=%d", got, a)
		}
	}
	// Spot-check distributivity over addition (XOR).
	for _, tr := range [][3]byte{{3, 7, 250}, {0x53, 0xCA, 1}, {255, 2, 128}} {
		a, b, c := tr[0], tr[1], tr[2]
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("distributivity fails for %v", tr)
		}
	}
}

// TestXorIntoMatchesByteLoop compares xorInto with the byte loop it
// replaced, over odd lengths and unaligned starts of both operands, and
// checks that it touches nothing past len(src) and still refuses a short
// destination.
func TestXorIntoMatchesByteLoop(t *testing.T) {
	rnd := sim.NewRand(5)
	backing := func() []byte {
		b := make([]byte, 300)
		for i := range b {
			b[i] = byte(rnd.Intn(256))
		}
		return b
	}
	for _, n := range []int{0, 1, 7, 8, 9, 31, 64, 127, 255} {
		for dOff := 0; dOff < 9; dOff++ {
			for sOff := 0; sOff < 9; sOff += 3 {
				dst, src := backing(), backing()
				want := bytes.Clone(dst)
				for i := 0; i < n; i++ {
					want[dOff+i] ^= src[sOff+i]
				}
				xorInto(dst[dOff:], src[sOff:sOff+n])
				if !bytes.Equal(dst, want) {
					t.Fatalf("n=%d dst+%d src+%d: differs from the byte loop", n, dOff, sOff)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("xorInto into a shorter destination did not panic")
		}
	}()
	xorInto(make([]byte, 7), make([]byte, 8))
}

// The read-modify-write folds of a data column's change, against their
// definitions byte by byte: newP = P ⊕ old ⊕ new, and newQ = Q ⊕
// coef·(old ⊕ new) for every column coefficient, the identity included.
func TestParityDeltaFolds(t *testing.T) {
	rnd := sim.NewRand(7)
	block := func() []byte {
		b := make([]byte, 512)
		for i := range b {
			if rnd.Intn(4) > 0 { // leave zero bytes, and equal old/new bytes, in
				b[i] = byte(rnd.Intn(256))
			}
		}
		return b
	}
	for _, coef := range []byte{1, 2, gfPow(5), 0x8e} {
		base, a, b := block(), block(), block()
		copy(b[:64], a[:64]) // an unchanged stretch: zero delta
		gotP, gotQ := make([]byte, len(base)), make([]byte, len(base))
		xor3(gotP, base, a, b)
		gfMulAddDelta(gotQ, base, coef, a, b)
		for i := range base {
			if want := base[i] ^ a[i] ^ b[i]; gotP[i] != want {
				t.Fatalf("xor3 byte %d: %#x, want %#x", i, gotP[i], want)
			}
			if want := base[i] ^ gfMul(coef, a[i]^b[i]); gotQ[i] != want {
				t.Fatalf("gfMulAddDelta coef %#x byte %d: %#x, want %#x", coef, i, gotQ[i], want)
			}
		}
	}
}

func TestSolveRowAllErasures(t *testing.T) {
	v := mustNew(t, Options{Layout: RAID6, Disks: 5, Disk: tinyDisk()})
	ra := v.ra
	n := v.bs.Bytes()
	data := make([][]byte, ra.ndata)
	for c := range data {
		data[c] = make([]byte, n)
		for i := range data[c] {
			data[c][i] = byte((i*7 + c*131 + 13) % 256)
		}
	}
	p := make([]byte, n)
	q := make([]byte, n)
	for c := range data {
		xorInto(p, data[c])
		gfMulAddInto(q, gfPow(c), data[c])
	}
	check := func(label string, colv [][]byte, pp, qq []byte, want int) {
		t.Helper()
		var pool [][]byte
		if got := ra.solveRow(colv, pp, qq, &pool); got != want {
			t.Fatalf("%s: %d unsolved, want %d", label, got, want)
		}
		if want == 0 {
			for c := range colv {
				if !bytes.Equal(colv[c][:n], data[c]) {
					t.Fatalf("%s: column %d reconstructed wrong", label, c)
				}
			}
		}
		ra.release(&pool)
	}
	cols := func(erase ...int) [][]byte {
		colv := make([][]byte, ra.ndata)
		copy(colv, data)
		for _, x := range erase {
			colv[x] = nil
		}
		return colv
	}
	for x := 0; x < ra.ndata; x++ {
		check("single via P", cols(x), p, nil, 0)
		check("single via Q", cols(x), nil, q, 0)
		for y := x + 1; y < ra.ndata; y++ {
			check("double via P+Q", cols(x, y), p, q, 0)
			check("double, Q missing", cols(x, y), p, nil, 2)
		}
	}
	check("single, no parity", cols(1), nil, nil, 1)
}

func TestRAIDRoundTrip(t *testing.T) {
	for _, opts := range []Options{
		{Layout: RAID5, Disks: 3, StripeUnit: 1, Disk: tinyDisk()},
		{Layout: RAID5, Disks: 5, StripeUnit: 4, Disk: tinyDisk()},
		{Layout: RAID6, Disks: 4, StripeUnit: 2, Disk: tinyDisk()},
		{Layout: RAID6, Disks: 6, StripeUnit: 16, Disk: tinyDisk()},
	} {
		v := mustNew(t, opts)
		blks := []int64{0, 1, 3, 4, 15, 16, 17, v.Blocks() / 2, v.Blocks() - 1}
		for k, blk := range blks {
			want := blockOf(byte(0x20 + k))
			if err := write(t, v, blk, want); err != nil {
				t.Fatalf("%s/%d disks: write block %d: %v", opts.Layout, opts.Disks, blk, err)
			}
			got, err := read(t, v, blk)
			if err != nil {
				t.Fatalf("%s/%d disks: read block %d: %v", opts.Layout, opts.Disks, blk, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s/%d disks: block %d round-trip mismatch", opts.Layout, opts.Disks, blk)
			}
		}
		// Overwrites must fold the delta into parity, not double it.
		want := blockOf(0x77)
		if err := write(t, v, 16, want); err != nil {
			t.Fatal(err)
		}
		if got, _ := read(t, v, 16); !bytes.Equal(got, want) {
			t.Fatalf("%s: overwrite lost", opts.Layout)
		}
		if v.RAID().ParityRecomputes == 0 {
			t.Errorf("%s: no parity recomputes counted", opts.Layout)
		}
	}
}

// The acceptance scenario: a fault.Plan kills a member, and RAID-5
// keeps returning byte-identical data by reconstructing from the
// survivors and parity.
func TestRAID5DegradedReadReconstructs(t *testing.T) {
	v := mustNew(t, Options{
		Layout: RAID5, Disks: 3, StripeUnit: 1, Disk: tinyDisk(),
		Faults: []*fault.Plan{nil, {CrashAfterOps: 20}},
	})
	nblk := int64(40)
	for k := int64(0); k < nblk; k++ {
		if err := write(t, v, k, blockOf(byte(k+1))); err != nil {
			t.Fatalf("write %d: %v", k, err)
		}
	}
	if n := v.DeadMembers(); n != 1 {
		t.Fatalf("DeadMembers = %d, want 1", n)
	}
	for k := int64(0); k < nblk; k++ {
		got, err := read(t, v, k)
		if err != nil {
			t.Fatalf("degraded read %d: %v", k, err)
		}
		if !bytes.Equal(got, blockOf(byte(k+1))) {
			t.Fatalf("degraded read %d: wrong data", k)
		}
	}
	if v.RAID().DegradedReads == 0 {
		t.Error("no degraded reads counted")
	}
	if v.Degraded() == 0 {
		t.Error("no degraded requests counted")
	}
}

func TestRAID6SurvivesDoubleFault(t *testing.T) {
	v := mustNew(t, Options{
		Layout: RAID6, Disks: 4, StripeUnit: 2, Disk: tinyDisk(),
		Faults: []*fault.Plan{nil, {CrashAfterOps: 15}, {CrashAfterOps: 25}},
	})
	nblk := int64(60)
	for k := int64(0); k < nblk; k++ {
		if err := write(t, v, k, blockOf(byte(k+3))); err != nil {
			t.Fatalf("write %d: %v", k, err)
		}
	}
	if n := v.DeadMembers(); n != 2 {
		t.Fatalf("DeadMembers = %d, want 2", n)
	}
	for k := int64(0); k < nblk; k++ {
		got, err := read(t, v, k)
		if err != nil {
			t.Fatalf("double-degraded read %d: %v", k, err)
		}
		if !bytes.Equal(got, blockOf(byte(k+3))) {
			t.Fatalf("double-degraded read %d: wrong data", k)
		}
	}
	// Writes keep working with two members down, and read back.
	if err := write(t, v, 5, blockOf(0xEE)); err != nil {
		t.Fatalf("double-degraded write: %v", err)
	}
	if got, _ := read(t, v, 5); !bytes.Equal(got, blockOf(0xEE)) {
		t.Fatal("double-degraded write lost")
	}
}

// Losses beyond the parity budget surface the driver's ErrDead
// taxonomy: the volume error unwraps to both driver.ErrDead and
// fault.ErrCrash.
func TestRAIDBeyondParityFailsWithErrDead(t *testing.T) {
	v := mustNew(t, Options{
		Layout: RAID5, Disks: 3, StripeUnit: 1, Disk: tinyDisk(),
		Faults: []*fault.Plan{{CrashAfterOps: 8}, {CrashAfterOps: 8}},
	})
	for k := int64(0); k < 20; k++ {
		write(t, v, k, blockOf(byte(k))) // errors expected once dead
	}
	if n := v.DeadMembers(); n != 2 {
		t.Fatalf("DeadMembers = %d, want 2", n)
	}
	_, err := read(t, v, 0)
	if !errors.Is(err, driver.ErrDead) || !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("read beyond parity: err = %v, want ErrDead wrapping ErrCrash", err)
	}
	if err := write(t, v, 0, blockOf(1)); !errors.Is(err, driver.ErrDead) {
		t.Fatalf("write beyond parity: err = %v, want ErrDead", err)
	}
	if v.RAID().Unrecoverable == 0 {
		t.Error("no unrecoverable requests counted")
	}
}

func TestRAID5RebuildOntoSpare(t *testing.T) {
	v := mustNew(t, Options{
		Layout: RAID5, Disks: 3, Spare: 1, StripeUnit: 1, Disk: tinyDisk(),
		RebuildRate: 2000,
		Faults:      []*fault.Plan{nil, {CrashAfterOps: 30}},
	})
	nblk := int64(50)
	for k := int64(0); k < nblk; k++ {
		if err := write(t, v, k, blockOf(byte(k+9))); err != nil {
			t.Fatalf("write %d: %v", k, err)
		}
	}
	// The write helpers run the engine to quiescence, which includes the
	// whole rebuild chain once the member death is observed.
	st := v.RAID()
	if st.RebuildsStarted != 1 || st.RebuildsDone != 1 {
		t.Fatalf("rebuild counters: %+v", st)
	}
	if st.RebuiltBlocks != v.ra.per {
		t.Errorf("RebuiltBlocks = %d, want the full member (%d)", st.RebuiltBlocks, v.ra.per)
	}
	if st.RebuildMS <= 0 {
		t.Error("no rebuild time accumulated")
	}
	if v.Spares() != 0 || v.Rebuilding() {
		t.Errorf("spare not consumed cleanly: spares=%d rebuilding=%v", v.Spares(), v.Rebuilding())
	}
	if v.ra.slotRig[1] != 3 {
		t.Errorf("slot 1 maps to rig %d, want the spare (3)", v.ra.slotRig[1])
	}
	// With the spare spliced in, reads are healthy again — correct data,
	// nothing reconstructed.
	before := v.RAID().DegradedReads
	for k := int64(0); k < nblk; k++ {
		got, err := read(t, v, k)
		if err != nil {
			t.Fatalf("post-rebuild read %d: %v", k, err)
		}
		if !bytes.Equal(got, blockOf(byte(k+9))) {
			t.Fatalf("post-rebuild read %d: wrong data", k)
		}
	}
	if after := v.RAID().DegradedReads; after != before {
		t.Errorf("post-rebuild reads still degraded: %d -> %d", before, after)
	}
}

func TestRebuildAbortsWhenSpareDies(t *testing.T) {
	v := mustNew(t, Options{
		Layout: RAID5, Disks: 3, Spare: 1, StripeUnit: 1, Disk: tinyDisk(),
		RebuildRate: 2000,
		Faults:      []*fault.Plan{nil, {CrashAfterOps: 20}, nil, {CrashAfterOps: 40}},
	})
	nblk := int64(40)
	for k := int64(0); k < nblk; k++ {
		if err := write(t, v, k, blockOf(byte(k+1))); err != nil {
			t.Fatalf("write %d: %v", k, err)
		}
	}
	st := v.RAID()
	if st.RebuildsStarted != 1 || st.RebuildsDone != 0 {
		t.Fatalf("rebuild counters after spare death: %+v", st)
	}
	if v.Spares() != 0 {
		t.Errorf("dead spare still pooled")
	}
	// Still degraded, still serving.
	for k := int64(0); k < nblk; k++ {
		got, err := read(t, v, k)
		if err != nil || !bytes.Equal(got, blockOf(byte(k+1))) {
			t.Fatalf("degraded read %d after aborted rebuild: %v", k, err)
		}
	}
}

// The rebuild throttle: the idle pace is 1000/rate ms per block, and
// foreground queue depth stretches it.
func TestRebuildStepDelayYieldsToLoad(t *testing.T) {
	v := mustNew(t, Options{Layout: RAID5, Disks: 3, Disk: tinyDisk(), RebuildRate: 500})
	base := v.ra.stepDelay()
	if base != 2 {
		t.Fatalf("idle step delay = %v ms, want 2", base)
	}
	// Queue raw traffic on a member without running the engine.
	for k := int64(0); k < 6; k++ {
		v.Members[0].Driver.ReadBlock(0, k*10, nil)
	}
	if loaded := v.ra.stepDelay(); loaded <= base {
		t.Errorf("loaded step delay %v not above idle %v", loaded, base)
	}
	v.Eng.Run()
}

// A rebuild racing foreground traffic takes longer than an idle one
// (the throttle yields) but still completes onto the spare with the
// foreground writes folded in — the acceptance "throttled rebuild
// under foreground load".
func TestRebuildUnderForegroundLoad(t *testing.T) {
	build := func() *Volume {
		return mustNew(t, Options{
			Layout: RAID5, Disks: 3, Spare: 1, StripeUnit: 1, Disk: tinyDisk(),
			RebuildRate: 1000,
			Faults:      []*fault.Plan{nil, {CrashAfterOps: 25}},
		})
	}
	// Idle: kill the member, let the rebuild run uncontended.
	idle := build()
	for k := int64(0); k < 30; k++ {
		if err := write(t, idle, k, blockOf(byte(k))); err != nil {
			t.Fatalf("idle write %d: %v", k, err)
		}
	}
	if st := idle.RAID(); st.RebuildsDone != 1 {
		t.Fatalf("idle rebuild: %+v", st)
	}

	// Loaded: keep issuing writes in small time slices so the rebuild
	// overlaps a busy foreground.
	busy := build()
	kills := int64(0)
	for k := int64(0); k < 30; k++ {
		busy.WriteBlock(0, k, blockOf(byte(k)), nil)
		kills++
		if kills%3 == 0 {
			busy.Eng.RunUntil(busy.Eng.Now() + 5)
		}
	}
	blk := int64(0)
	for !busy.Rebuilding() && busy.DeadMembers() == 0 {
		busy.Eng.RunUntil(busy.Eng.Now() + 5)
	}
	for i := 0; i < 4000 && (busy.Rebuilding() || busy.RAID().RebuildsDone == 0); i++ {
		busy.WriteBlock(0, blk%30, blockOf(byte(blk)), nil)
		blk++
		busy.Eng.RunUntil(busy.Eng.Now() + 5)
	}
	busy.Run()
	bst := busy.RAID()
	if bst.RebuildsDone != 1 {
		t.Fatalf("loaded rebuild never finished: %+v", bst)
	}
	if bst.RebuildMS <= idle.RAID().RebuildMS {
		t.Errorf("loaded rebuild (%v ms) not slower than idle (%v ms)",
			bst.RebuildMS, idle.RAID().RebuildMS)
	}
	// The foreground writes that landed behind the cursor were written
	// through: every block reads back as its last write.
	last := make(map[int64]byte)
	for b := int64(0); b < 30; b++ {
		last[b] = byte(b)
	}
	for w := int64(0); w < blk; w++ {
		last[w%30] = byte(w)
	}
	for b := int64(0); b < 30; b++ {
		got, err := read(t, busy, b)
		if err != nil {
			t.Fatalf("read %d after loaded rebuild: %v", b, err)
		}
		if !bytes.Equal(got, blockOf(last[b])) {
			t.Fatalf("block %d lost its latest write during rebuild", b)
		}
	}
}

// memberPhysSector maps a member block to the physical sector a
// fault.Plan bad range needs, through the member's label.
func memberPhysSector(t *testing.T, m *rig.Rig, mb int64) int64 {
	t.Helper()
	p, err := m.Driver.Label().Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	return m.Driver.Label().MapVirtual(p.Start + mb*int64(geom.Block8K.Sectors()))
}

// The acceptance scenario: a planted latent sector error (a bad range
// never touched by foreground writes) is found by a scrub pass,
// reconstructed or recomputed, and repaired via the driver's remap
// path — on a data slot, and on each parity slot, whose repair is a
// recomputation rather than a reconstruction.
func TestScrubRepairsLatentSectorError(t *testing.T) {
	// Member block 9 sits in row 9 (unit 1). With 3 disks the row's P is
	// on slot 2; with 4 (RAID-6) P is on slot 2 and Q on slot 3. Slots 0
	// and 1 hold data columns 0 and 1 — logical blocks 18 and 19, which
	// the test never writes, so the bad range stays latent.
	for _, tc := range []struct {
		name   string
		layout Layout
		disks  int
		member int   // the member carrying the latent error
		recons int64 // degraded reads a pre-scrub read of block 18 costs
	}{
		{"data", RAID5, 3, 0, 1},
		{"p", RAID5, 3, 2, 0},
		{"q", RAID6, 4, 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// 8 reserved cylinders: enough for the on-disk block table plus
			// the spare slots the media-error remap path allocates from.
			opts := Options{
				Layout: tc.layout, Disks: tc.disks, StripeUnit: 1, Disk: tinyDisk(),
				ReservedCyls: 8, RebuildRate: 2000, ScrubIntervalMS: 60_000,
			}
			scout := mustNew(t, opts)
			bad := memberPhysSector(t, scout.Members[tc.member], 9)
			bsec := int64(geom.Block8K.Sectors())
			opts.Faults = make([]*fault.Plan, tc.disks)
			opts.Faults[tc.member] = &fault.Plan{Bad: []fault.SectorRange{{Start: bad, End: bad + bsec}}}
			v := mustNew(t, opts)
			defer v.Close()
			for k := int64(0); k < 16; k++ {
				if err := write(t, v, k, blockOf(byte(k+5))); err != nil {
					t.Fatalf("write %d: %v", k, err)
				}
			}
			// settle reads the latent member block straight off its member.
			settle := func() error {
				var rerr error
				fired := false
				v.Members[tc.member].Driver.ReadBlock(0, 9, func(_ []byte, err error) { rerr, fired = err, true })
				v.Eng.RunUntil(v.Eng.Now() + 30_000)
				if !fired {
					t.Fatal("member read never completed")
				}
				return rerr
			}
			// readRow reads the row's data blocks through the volume and
			// returns how many of them reconstructed.
			readRow := func() int64 {
				before := v.RAID().DegradedReads
				for _, blk := range []int64{18, 19} {
					var data []byte
					var rerr error
					fired := false
					v.ReadBlock(0, blk, func(d []byte, err error) { data, rerr, fired = d, err, true })
					v.Eng.RunUntil(v.Eng.Now() + 30_000)
					if !fired || rerr != nil || !bytes.Equal(data, make([]byte, v.bs.Bytes())) {
						t.Fatalf("read of block %d: fired=%v err=%v, or wrong data", blk, fired, rerr)
					}
				}
				return v.RAID().DegradedReads - before
			}
			// Before the scrub the error is still on the media: a data slot
			// reconstructs on every read, a parity slot goes unnoticed.
			if settle() == nil {
				t.Fatal("planted latent error reads clean before the scrub")
			}
			if n := readRow(); n != tc.recons {
				t.Fatalf("pre-scrub reads reconstructed %d times, want %d", n, tc.recons)
			}
			if !v.StartScrub() {
				t.Fatal("StartScrub refused")
			}
			if v.StartScrub() {
				t.Fatal("StartScrub armed twice")
			}
			// One interval to the first tick, then the pass itself.
			v.Eng.RunUntil(v.Eng.Now() + 120_000)
			st := v.RAID()
			if st.ScrubPasses == 0 {
				t.Fatal("no scrub pass ran")
			}
			if st.ScrubRepairs != 1 {
				t.Fatalf("ScrubRepairs = %d, want exactly the planted error", st.ScrubRepairs)
			}
			// The repair went through the remap path: the block now reads
			// clean from its member, and the row reads without
			// reconstruction.
			if err := settle(); err != nil {
				t.Fatalf("post-scrub member read: %v", err)
			}
			if n := readRow(); n != 0 {
				t.Errorf("post-scrub reads still reconstructing (%d)", n)
			}
		})
	}
}

func TestRAIDValidation(t *testing.T) {
	cases := []Options{
		{Layout: RAID5, Disks: 2},
		{Layout: RAID6, Disks: 3},
		{Layout: Stripe, Disks: 2, Spare: 1},
		{Layout: Mirror, Disks: 2, ScrubIntervalMS: 1000},
		{Layout: RAID5, Disks: 3, Spare: -1},
		{Layout: RAID5, Disks: 3, RebuildRate: -5},
		{Layout: RAID5, Disks: 3, StripeUnit: 1 << 30},
	}
	for i, opts := range cases {
		if _, err := New(opts); err == nil {
			t.Errorf("case %d (%+v): accepted", i, opts)
		}
	}
	// Non-parity layouts report zero RAID stats and refuse to scrub.
	v := mustNew(t, Options{Layout: Mirror, Disks: 2})
	if v.RAID() != (RAIDStats{}) || v.Spares() != 0 || v.Rebuilding() {
		t.Error("mirror reports parity state")
	}
	if v.StartScrub() {
		t.Error("mirror armed a scrub")
	}
}
