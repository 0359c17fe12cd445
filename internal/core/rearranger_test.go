package core

import (
	"testing"

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
	counter := hotlist.NewBounded(64)
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

// TestRearrangePreservesData: a block updated while it sits in the
// reserved region keeps the update across a night, whether it stays hot
// (cleaned home, then copied in again) or leaves the hot list (cleaned
// home only).
func TestRearrangePreservesData(t *testing.T) {
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
	ra.Rearrange(nil)
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

// TestFullNightCost pins what a night costs in disk I/O (§4.1.3–4.1.4):
// the clean-out writes the table once per block it removes (every block
// is clean, as only reads ran), and each block copied in costs a read,
// a write and a table write. The rig sees two days of a 400-block hot
// set that drifts by ten draws overnight, and night 2 installs 396
// blocks, as many as night 1 did: 396 reads and 3 × 396 writes.
// EXPERIMENTS.md quotes the count.
func TestFullNightCost(t *testing.T) {
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
	var moved int
	var cerr error
	r0, w0, _ := r.Disk.Counters()
	ra.Rearrange(func(n int, err error) { moved, cerr = n, err })
	r.Eng.Run()
	if cerr != nil {
		t.Fatal(cerr)
	}
	r1, w1, _ := r.Disk.Counters()
	got := [3]int64{int64(moved), r1 - r0, w1 - w0}
	if want := [3]int64{396, 396, 1188}; got != want {
		t.Errorf("night 2: {moved, reads, writes} = %v, want %v", got, want)
	}
}
