package core

import (
	"slices"
	"testing"

	"repro/internal/blocktable"
	"repro/internal/hotlist"
	"repro/internal/metrics"
	"repro/internal/rig"
	"repro/internal/sim"
)

func newRig(t *testing.T) *rig.Rig {
	t.Helper()
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRequiresRearrangedDisk(t *testing.T) {
	r, err := rig.New(rig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(r.Eng, r.Driver, Config{}); err == nil {
		t.Fatal("rearranger accepted a non-rearranged disk")
	}
}

// core_hot_churn counts the top blocks new since its last read, so a
// second read with no new references reads 0.
func TestBindMetricsHotList(t *testing.T) {
	r := newRig(t)
	ra, err := New(r.Eng, r.Driver, Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	ra.BindMetrics(reg, metrics.Label{Key: "disk", Value: "1"})
	read := func() map[string]float64 {
		got := map[string]float64{}
		for _, m := range reg.Snapshot().Metrics {
			got[m.Name] = m.Value
		}
		return got
	}
	for _, blk := range []int64{42, 42, 99, 7} {
		r.Driver.ReadBlock(0, blk, nil)
	}
	r.Eng.Run()
	ra.Poll()
	first := read()
	if first[`core_hot_tracked{disk="1"}`] != 3 || first[`core_hot_churn{disk="1"}`] != 3 {
		t.Errorf("first read %v, want 3 tracked, 3 new", first)
	}
	if again := read(); again[`core_hot_churn{disk="1"}`] != 0 {
		t.Errorf("second read churn = %v, want 0", again[`core_hot_churn{disk="1"}`])
	}
}

func TestPollAccumulatesCounts(t *testing.T) {
	r := newRig(t)
	ra, err := New(r.Eng, r.Driver, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		r.Driver.ReadBlock(0, 42, nil)
	}
	// Reads and writes count alike, as in the paper's analyzer.
	r.Driver.ReadBlock(0, 99, nil)
	r.Driver.WriteBlock(0, 99, make([]byte, r.Driver.BlockSize().Bytes()), nil)
	r.Eng.Run()
	ra.Poll()
	hot := ra.HotList()
	if len(hot) != 2 {
		t.Fatalf("hot list has %d entries, want 2", len(hot))
	}
	if hot[0].Count != 7 || hot[1].Count != 2 {
		t.Errorf("counts = %d, %d, want 7, 2", hot[0].Count, hot[1].Count)
	}
}

func TestMonitoringPollsPeriodically(t *testing.T) {
	r := newRig(t)
	ra, err := New(r.Eng, r.Driver, Config{PollPeriodMS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ra.StartMonitoring()
	// Issue requests over 5 simulated seconds.
	for i := 0; i < 5; i++ {
		i := i
		r.Eng.At(float64(i)*1000+10, func() {
			r.Driver.ReadBlock(0, int64(i), nil)
		})
	}
	r.Eng.RunUntil(5500)
	ra.StopMonitoring()
	if got := ra.HotList(); len(got) != 5 {
		t.Errorf("hot list has %d entries after periodic polling, want 5", len(got))
	}
	if ra.Missed() != 0 {
		t.Errorf("missed = %d", ra.Missed())
	}
}

func TestStopMonitoringStopsPolling(t *testing.T) {
	r := newRig(t)
	ra, err := New(r.Eng, r.Driver, Config{PollPeriodMS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ra.StartMonitoring()
	r.Eng.RunUntil(2500)
	ra.StopMonitoring()
	// Traffic after stop is not observed until the next explicit poll.
	r.Driver.ReadBlock(0, 7, nil)
	r.Eng.RunUntil(10000)
	if got := len(ra.HotList()); got != 0 {
		t.Errorf("hot list has %d entries after stop", got)
	}
}

func TestRearrangeInstallsHotBlocks(t *testing.T) {
	r := newRig(t)
	ra, err := New(r.Eng, r.Driver, Config{MaxBlocks: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Skewed traffic: 50 hot blocks referenced many times.
	for rep := 0; rep < 5; rep++ {
		for b := int64(0); b < 50; b++ {
			r.Driver.ReadBlock(0, b*37, nil)
		}
	}
	r.Eng.Run()
	ra.Poll()
	var installed int
	var rerr error
	ra.Rearrange(func(n int, err error) { installed, rerr = n, err })
	r.Eng.Run()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if installed != 50 {
		t.Errorf("installed %d blocks, want 50", installed)
	}
	if r.Driver.BlockTableLen() != 50 {
		t.Errorf("block table has %d entries", r.Driver.BlockTableLen())
	}
}

func TestRearrangeReplacesPreviousSet(t *testing.T) {
	r := newRig(t)
	ra, err := New(r.Eng, r.Driver, Config{MaxBlocks: 10})
	if err != nil {
		t.Fatal(err)
	}
	for b := int64(0); b < 10; b++ {
		r.Driver.ReadBlock(0, b, nil)
	}
	r.Eng.Run()
	ra.Poll()
	ra.Rearrange(nil)
	r.Eng.Run()
	if r.Driver.BlockTableLen() != 10 {
		t.Fatalf("first cycle installed %d", r.Driver.BlockTableLen())
	}

	// New day, different hot set.
	ra.ResetCounts()
	for b := int64(100); b < 105; b++ {
		for i := 0; i < 3; i++ {
			r.Driver.ReadBlock(0, b, nil)
		}
	}
	r.Eng.Run()
	ra.Poll()
	var installed int
	ra.Rearrange(func(n int, err error) { installed = n })
	r.Eng.Run()
	if installed != 5 {
		t.Errorf("second cycle installed %d, want 5", installed)
	}
	if r.Driver.BlockTableLen() != 5 {
		t.Errorf("table has %d entries after second cycle", r.Driver.BlockTableLen())
	}
}

func TestCleanOnly(t *testing.T) {
	r := newRig(t)
	ra, err := New(r.Eng, r.Driver, Config{MaxBlocks: 5})
	if err != nil {
		t.Fatal(err)
	}
	for b := int64(0); b < 5; b++ {
		r.Driver.ReadBlock(0, b, nil)
	}
	r.Eng.Run()
	ra.Poll()
	ra.Rearrange(nil)
	r.Eng.Run()
	var cerr error
	ra.CleanOnly(func(err error) { cerr = err })
	r.Eng.Run()
	if cerr != nil {
		t.Fatal(cerr)
	}
	if r.Driver.BlockTableLen() != 0 {
		t.Errorf("table has %d entries after CleanOnly", r.Driver.BlockTableLen())
	}
}

func TestRearrangementReducesSeekDistance(t *testing.T) {
	// The headline effect, end to end: with a skewed workload, a
	// rearranged day has a much lower mean scheduled seek distance than
	// an unrearranged one.
	run := func(rearrange bool) float64 {
		r := newRig(t)
		ra, err := New(r.Eng, r.Driver, Config{MaxBlocks: 200})
		if err != nil {
			t.Fatal(err)
		}
		rnd := sim.NewRand(99)
		z := sim.NewZipf(200, 1.5)
		nblocks := r.PartitionBlocks(0)
		// Hot blocks scattered across the whole disk.
		hotBlocks := make([]int64, 200)
		for i := range hotBlocks {
			hotBlocks[i] = rnd.Int63n(nblocks)
		}
		day := func() {
			base := r.Eng.Now()
			for i := 0; i < 3000; i++ {
				blk := hotBlocks[z.Rank(rnd)]
				at := base + float64(i)*40
				r.Eng.At(at, func() { r.Driver.ReadBlock(0, blk, nil) })
			}
			r.Eng.Run()
		}
		day() // day 1: monitor
		ra.Poll()
		if rearrange {
			ra.Rearrange(nil)
			r.Eng.Run()
		}
		r.Driver.ReadStats() // discard day-1 stats
		day()                // day 2: measure
		return r.Driver.ReadStats().All().SchedDist.MeanDist()
	}
	off := run(false)
	on := run(true)
	if on >= off/3 {
		t.Errorf("rearranged mean seek dist %.1f, unrearranged %.1f: expected a large reduction", on, off)
	}
}

func TestDefaultsApplied(t *testing.T) {
	r := newRig(t)
	ra, err := New(r.Eng, r.Driver, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Policy().Name() != "organ-pipe" {
		t.Errorf("default policy = %q", ra.Policy().Name())
	}
	if ra.cfg.PollPeriodMS != DefaultPollPeriodMS {
		t.Errorf("default poll period = %v", ra.cfg.PollPeriodMS)
	}
	if ra.cfg.MaxBlocks <= 900 {
		t.Errorf("default MaxBlocks = %d, want reserved capacity (~1000)", ra.cfg.MaxBlocks)
	}
}

func TestBoundedCounterIntegration(t *testing.T) {
	r := newRig(t)
	counter := hotlist.NewBounded(64, hotlist.ReplaceMin)
	ra, err := New(r.Eng, r.Driver, Config{Counter: counter, MaxBlocks: 10})
	if err != nil {
		t.Fatal(err)
	}
	rnd := sim.NewRand(5)
	z := sim.NewZipf(1000, 1.4)
	for i := 0; i < 2000; i++ {
		r.Driver.ReadBlock(0, int64(z.Rank(rnd)), nil)
	}
	r.Eng.Run()
	ra.Poll()
	var installed int
	ra.Rearrange(func(n int, err error) { installed = n })
	r.Eng.Run()
	if installed != 10 {
		t.Errorf("installed %d with bounded counter", installed)
	}
}

func TestBCleanSingleBlock(t *testing.T) {
	r := newRig(t)
	ra, err := New(r.Eng, r.Driver, Config{MaxBlocks: 3})
	if err != nil {
		t.Fatal(err)
	}
	for b := int64(0); b < 3; b++ {
		r.Driver.ReadBlock(0, b*100, nil)
	}
	r.Eng.Run()
	ra.Poll()
	ra.Rearrange(nil)
	r.Eng.Run()
	if r.Driver.BlockTableLen() != 3 {
		t.Fatalf("table has %d entries", r.Driver.BlockTableLen())
	}
	entries := r.Driver.BlockTable()
	var cerr error
	r.Driver.BClean(entries[0].Orig, func(err error) { cerr = err })
	r.Eng.Run()
	if cerr != nil {
		t.Fatal(cerr)
	}
	if r.Driver.BlockTableLen() != 2 {
		t.Errorf("table has %d entries after BClean", r.Driver.BlockTableLen())
	}
	// BClean of an unrearranged block is a harmless no-op.
	r.Driver.BClean(999888*16, func(err error) { cerr = err })
	r.Eng.Run()
	if cerr != nil || r.Driver.BlockTableLen() != 2 {
		t.Errorf("no-op BClean: err=%v len=%d", cerr, r.Driver.BlockTableLen())
	}
}

func TestRearrangeIncrementalMovesOnlyTheDifference(t *testing.T) {
	r := newRig(t)
	ra, err := New(r.Eng, r.Driver, Config{MaxBlocks: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Day 1: blocks 0..9 hot, with decreasing counts.
	for b := int64(0); b < 10; b++ {
		for i := int64(0); i < 20-b; i++ {
			r.Driver.ReadBlock(0, b*50, nil)
		}
	}
	r.Eng.Run()
	ra.Poll()
	ra.Rearrange(nil)
	r.Eng.Run()
	if r.Driver.BlockTableLen() != 10 {
		t.Fatalf("first cycle: %d entries", r.Driver.BlockTableLen())
	}

	// Day 2: identical pattern -> the incremental cycle should move
	// nothing at all.
	ra.ResetCounts()
	for b := int64(0); b < 10; b++ {
		for i := int64(0); i < 20-b; i++ {
			r.Driver.ReadBlock(0, b*50, nil)
		}
	}
	r.Eng.Run()
	ra.Poll()
	var moved int
	var rerr error
	ra.RearrangeIncremental(func(n int, err error) { moved, rerr = n, err })
	r.Eng.Run()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if moved != 0 {
		t.Errorf("identical hot set: incremental moved %d blocks, want 0", moved)
	}
	if r.Driver.BlockTableLen() != 10 {
		t.Errorf("table has %d entries", r.Driver.BlockTableLen())
	}

	// Day 3: one new block displaces the coldest; only the difference
	// moves (the new block in, the stale one out, plus any blocks whose
	// organ-pipe rank slot shifted).
	ra.ResetCounts()
	for b := int64(0); b < 9; b++ {
		for i := int64(0); i < 20-b; i++ {
			r.Driver.ReadBlock(0, b*50, nil)
		}
	}
	for i := 0; i < 25; i++ {
		r.Driver.ReadBlock(0, 7777, nil) // new hottest block
	}
	r.Eng.Run()
	ra.Poll()
	ra.RearrangeIncremental(func(n int, err error) { moved, rerr = n, err })
	r.Eng.Run()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if moved == 0 || moved > 10 {
		t.Errorf("incremental moved %d blocks", moved)
	}
	if r.Driver.BlockTableLen() != 10 {
		t.Errorf("table has %d entries after day 3", r.Driver.BlockTableLen())
	}
}

func TestRearrangeIncrementalFromEmpty(t *testing.T) {
	// With an empty reserved region, incremental equals a full cycle.
	r := newRig(t)
	ra, err := New(r.Eng, r.Driver, Config{MaxBlocks: 5})
	if err != nil {
		t.Fatal(err)
	}
	for b := int64(0); b < 5; b++ {
		r.Driver.ReadBlock(0, b*37, nil)
	}
	r.Eng.Run()
	ra.Poll()
	var moved int
	ra.RearrangeIncremental(func(n int, err error) { moved = n })
	r.Eng.Run()
	if moved != 5 || r.Driver.BlockTableLen() != 5 {
		t.Errorf("moved=%d len=%d", moved, r.Driver.BlockTableLen())
	}
}

func TestRearrangeIncrementalPreservesData(t *testing.T) {
	// A dirty kept block must keep its updated contents across the
	// incremental cycle; a dirty evicted block must be restored.
	r := newRig(t)
	ra, err := New(r.Eng, r.Driver, Config{MaxBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	blockData := func(b byte) []byte {
		d := make([]byte, r.Driver.BlockSize().Bytes())
		for i := range d {
			d[i] = b
		}
		return d
	}
	r.Driver.WriteBlock(0, 10, blockData(0xAA), nil)
	r.Driver.WriteBlock(0, 20, blockData(0xBB), nil)
	r.Eng.Run()
	// Hot: 10 (hotter) and 20.
	for i := 0; i < 5; i++ {
		r.Driver.ReadBlock(0, 10, nil)
	}
	r.Driver.ReadBlock(0, 20, nil)
	r.Eng.Run()
	ra.Poll()
	ra.Rearrange(nil)
	r.Eng.Run()

	// Update both (they are rearranged, so the copies go dirty).
	r.Driver.WriteBlock(0, 10, blockData(0xA1), nil)
	r.Driver.WriteBlock(0, 20, blockData(0xB1), nil)
	r.Eng.Run()

	// Next day: 10 still hot, 20 cold, 30 newly hot.
	ra.ResetCounts()
	for i := 0; i < 5; i++ {
		r.Driver.ReadBlock(0, 10, nil)
	}
	r.Driver.ReadBlock(0, 30, nil)
	r.Driver.ReadBlock(0, 30, nil)
	r.Eng.Run()
	ra.Poll()
	ra.RearrangeIncremental(nil)
	r.Eng.Run()

	var got10, got20 []byte
	r.Driver.ReadBlock(0, 10, func(d []byte, err error) { got10 = d })
	r.Driver.ReadBlock(0, 20, func(d []byte, err error) { got20 = d })
	r.Eng.Run()
	if got10[0] != 0xA1 {
		t.Errorf("kept block lost its update: %x", got10[0])
	}
	if got20[0] != 0xB1 {
		t.Errorf("evicted dirty block lost its update: %x", got20[0])
	}
}

// TestIncrementalCycleCostsLessThanFull measures the incremental-cycle
// benefit §1.1 credits block granularity with. Two rigs see the same two
// days of a 400-block hot set that drifts by ten draws overnight. On
// night 2 one runs a full cycle (clean everything, copy everything), the
// other the incremental cycle; both must leave the same block table, and
// the incremental one must cost fewer disk I/Os. The counts are
// deterministic and pinned: EXPERIMENTS.md quotes them.
func TestIncrementalCycleCostsLessThanFull(t *testing.T) {
	type night struct {
		reads, writes int64
		moved         int
		table         []blocktable.Entry
	}
	run := func(incremental bool) night {
		r := newRig(t)
		ra, err := New(r.Eng, r.Driver, Config{MaxBlocks: 400})
		if err != nil {
			t.Fatal(err)
		}
		rnd := sim.NewRand(11)
		nblocks := r.PartitionBlocks(0)
		hot := make([]int64, 400)
		for j := range hot {
			hot[j] = rnd.Int63n(nblocks)
		}
		day := func() {
			for j, blk := range hot {
				for k := 0; k < 400-j/2; k += 40 {
					r.Driver.ReadBlock(0, blk, nil)
				}
			}
			r.Eng.Run()
			ra.Poll()
		}
		day()
		ra.Rearrange(nil)
		r.Eng.Run()
		ra.ResetCounts()
		for j := 0; j < 10; j++ {
			hot[rnd.Intn(len(hot))] = rnd.Int63n(nblocks)
		}
		day()
		cycle := ra.Rearrange
		if incremental {
			cycle = ra.RearrangeIncremental
		}
		var n night
		var cerr error
		r0, w0, _ := r.Disk.Counters()
		cycle(func(moved int, err error) { n.moved, cerr = moved, err })
		r.Eng.Run()
		if cerr != nil {
			t.Fatal(cerr)
		}
		r1, w1, _ := r.Disk.Counters()
		n.reads, n.writes, n.table = r1-r0, w1-w0, r.Driver.BlockTable()
		return n
	}
	full, inc := run(false), run(true)
	t.Logf("full: %d blocks, %d reads + %d writes; incremental: %d blocks, %d reads + %d writes",
		full.moved, full.reads, full.writes, inc.moved, inc.reads, inc.writes)
	if inc.reads+inc.writes >= full.reads+full.writes {
		t.Errorf("incremental cycle took %d I/Os, full %d", inc.reads+inc.writes, full.reads+full.writes)
	}
	if !slices.Equal(inc.table, full.table) {
		t.Errorf("the two cycles left different block tables (%d vs %d entries)", len(inc.table), len(full.table))
	}
	for _, c := range []struct {
		name      string
		got, want [3]int64
	}{
		{"full", [3]int64{int64(full.moved), full.reads, full.writes}, [3]int64{396, 396, 1188}},
		{"incremental", [3]int64{int64(inc.moved), inc.reads, inc.writes}, [3]int64{108, 108, 324}},
	} {
		if c.got != c.want {
			t.Errorf("%s cycle: {moved, reads, writes} = %v, want %v", c.name, c.got, c.want)
		}
	}
}
