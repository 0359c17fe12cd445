package driver

import (
	"math"
	"testing"

	"repro/internal/disk"
	"repro/internal/geom"
	"repro/internal/label"
	"repro/internal/seek"
	"repro/internal/sim"
)

// TestFCFSDistUsesOriginalAddresses checks the key measurement property
// behind Table 3's highlighted rows: the arrival-order distribution must
// reflect the seeks FCFS service would have produced *without* block
// rearrangement, so it barely changes when blocks are rearranged, while
// the scheduled-order distribution collapses.
func TestFCFSDistUsesOriginalAddresses(t *testing.T) {
	eng, _, drv := newRig(t)
	// Two far-apart hot blocks, alternating.
	measure := func() (fcfs, sched float64) {
		drv.ReadStats()
		for i := 0; i < 200; i++ {
			blk := int64(100)
			if i%2 == 1 {
				blk = 15000
			}
			drv.ReadBlock(0, blk, nil)
		}
		eng.Run()
		st := drv.ReadStats().All()
		return st.FCFSDist.MeanDist(), st.SchedDist.MeanDist()
	}
	fcfsBefore, _ := measure()

	// Rearrange both blocks into the reserved region.
	p, _ := drv.Label().Partition(0)
	slots := drv.ReservedSlots()
	for i, blk := range []int64{100, 15000} {
		orig := drv.Label().MapVirtual(p.Start + blk*16)
		var cerr error
		drv.BCopy(orig, slots[0][i], func(err error) { cerr = err })
		eng.Run()
		if cerr != nil {
			t.Fatal(cerr)
		}
	}
	fcfsAfter, schedAfter := measure()

	if math.Abs(fcfsAfter-fcfsBefore) > 1 {
		t.Errorf("FCFS distance changed with rearrangement: %.1f -> %.1f", fcfsBefore, fcfsAfter)
	}
	if schedAfter > 1 {
		t.Errorf("scheduled distance %.1f after rearranging both blocks onto one cylinder", schedAfter)
	}
}

// TestSeekTimeFromDistribution verifies the paper's methodology: the
// reported seek time equals the seek curve applied to the measured
// distance distribution.
func TestSeekTimeFromDistribution(t *testing.T) {
	eng, _, drv := newRig(t)
	for i := 0; i < 50; i++ {
		drv.ReadBlock(0, int64(i%7)*2000, nil)
	}
	eng.Run()
	side := drv.ReadStats().All()
	curve := seek.ToshibaMK156F
	var sum float64
	for d, c := range side.SchedDist.Histogram() {
		sum += float64(c) * curve.SeekMS(d)
	}
	want := sum / float64(side.SchedDist.Count())
	if got := side.MeanSeekMS(curve); math.Abs(got-want) > 1e-9 {
		t.Errorf("MeanSeekMS = %v, want %v", got, want)
	}
}

// TestRotTransferAccounting checks Table 10's metric: cumulative
// rotational + transfer time divided by request count.
func TestRotTransferAccounting(t *testing.T) {
	eng, _, drv := newRig(t)
	for i := int64(0); i < 30; i++ {
		drv.ReadBlock(0, i*321, nil)
	}
	eng.Run()
	side := drv.ReadStats().All()
	rt := side.MeanRotTransferMS()
	// 8K at 34 sectors/track: transfer alone is ~7.8 ms; rotation adds
	// up to one revolution (16.67 ms).
	if rt < 7 || rt > 27 {
		t.Errorf("mean rot+transfer = %.2f ms, implausible", rt)
	}
	// Empty side reports zero.
	if (&Side{Service: drv.PeekStats().ReadSide.Service}).MeanRotTransferMS() != 0 {
		t.Error("empty side should report 0")
	}
}

// TestBufferHitsCounted verifies the Fujitsu track buffer shows up in
// the driver statistics.
func TestBufferHitsCounted(t *testing.T) {
	eng := sim.NewEngine()
	dsk := disk.MustNew(disk.Fujitsu())
	firstCyl, err := label.AlignedFirstCyl(dsk.Geom(), 16, (dsk.Geom().Cylinders-80)/2)
	if err != nil {
		t.Fatal(err)
	}
	lbl, err := label.NewRearrangedAt("fuji", dsk.Geom(), firstCyl, 80)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lbl.AddPartition(16, 1600000, label.TagFS); err != nil {
		t.Fatal(err)
	}
	if err := InitDisk(dsk, lbl, geom.Block8K); err != nil {
		t.Fatal(err)
	}
	drv, err := Attach(eng, dsk, Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential reads with idle gaps: read-ahead hits.
	_, _, hits0 := dsk.Counters()
	var issue func(blk int64)
	issue = func(blk int64) {
		if blk == 20 {
			return
		}
		drv.ReadBlock(0, blk, func(_ []byte, err error) {
			if err != nil {
				t.Errorf("read %d: %v", blk, err)
			}
			eng.After(30, func() { issue(blk + 1) })
		})
	}
	issue(0)
	eng.Run()
	st := drv.ReadStats()
	_, _, hits1 := dsk.Counters()
	hits := hits1 - hits0
	if hits == 0 {
		t.Error("no buffer hits recorded for sequential reads on the Fujitsu")
	}
	if hits >= st.ReadSide.Count() {
		t.Error("every read was a buffer hit, including the first")
	}
}

// TestRedirectedCounter verifies the lifetime redirect counter: one
// count per request the block table sends to the reserved region,
// reads and writes alike.
func TestRedirectedCounter(t *testing.T) {
	eng, _, drv := newRig(t)
	p, _ := drv.Label().Partition(0)
	drv.WriteBlock(0, 10, blockOf(1), nil)
	eng.Run()
	orig := drv.Label().MapVirtual(p.Start + 10*16)
	drv.BCopy(orig, drv.ReservedSlots()[0][0], nil)
	eng.Run()
	c0 := drv.Counters().Redirected

	drv.ReadBlock(0, 10, nil) // redirected
	drv.ReadBlock(0, 20, nil) // not
	eng.Run()
	c1 := drv.Counters().Redirected
	drv.WriteBlock(0, 10, blockOf(2), nil)
	eng.Run()
	c2 := drv.Counters().Redirected
	if c1-c0 != 1 {
		t.Errorf("read redirects = %d", c1-c0)
	}
	if c2-c1 != 1 {
		t.Errorf("write redirects = %d", c2-c1)
	}
	if c2-c0 != 2 {
		t.Errorf("total redirects = %d", c2-c0)
	}
}

// TestQueueingVsServiceWindows verifies the paper's definitions: the
// queueing time is arrival to dispatch; the service time is dispatch to
// completion; both are recorded per request.
func TestQueueingVsServiceWindows(t *testing.T) {
	eng, _, drv := newRig(t)
	// Two simultaneous requests: the first has zero queueing; the second
	// queues for exactly the first one's service time.
	var svc1, wait2 float64
	start := eng.Now()
	drv.ReadBlock(0, 1000, func(_ []byte, err error) { svc1 = eng.Now() - start })
	drv.ReadBlock(0, 15000, nil)
	eng.Run()
	st := drv.ReadStats()
	if st.ReadSide.Count() != 2 {
		t.Fatalf("%d requests", st.ReadSide.Count())
	}
	wait2 = st.ReadSide.Queueing.SumMS() // first waited 0
	if math.Abs(wait2-svc1) > 1e-6 {
		t.Errorf("second request waited %.3f ms, want first's service %.3f ms", wait2, svc1)
	}
}

// TestStatsHistogramResolution verifies the 1 ms bucketing with
// full-resolution means of Section 4.1.5.
func TestStatsHistogramResolution(t *testing.T) {
	eng, _, drv := newRig(t)
	for i := int64(0); i < 10; i++ {
		drv.ReadBlock(0, i*137, nil)
	}
	eng.Run()
	svc := drv.ReadStats().ReadSide.Service
	cdf := svc.CDF()
	if len(cdf) == 0 {
		t.Fatal("no CDF")
	}
	// Bucket boundaries are integral milliseconds.
	for _, pt := range cdf[:3] {
		if pt.X != math.Trunc(pt.X) {
			t.Errorf("bucket boundary %v not integral", pt.X)
		}
	}
}
