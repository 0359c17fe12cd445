package driver

import (
	"math"
	"sort"
	"testing"

	"repro/internal/disk"
	"repro/internal/geom"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/seek"
	"repro/internal/sim"
	"repro/internal/telemetry"
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
	for d, c := range side.SchedDist.counts {
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
	// The side ReadStats left behind is empty and reports zero.
	if drv.PeekStats().ReadSide.MeanRotTransferMS() != 0 {
		t.Error("empty side should report 0")
	}
}

// newFujitsuRig is newRig's Fujitsu counterpart: a rearranged Fujitsu
// with its read-ahead track buffer and one file-system partition.
func newFujitsuRig(t testing.TB) (*sim.Engine, *disk.Disk, *Driver) {
	t.Helper()
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
	return eng, dsk, drv
}

// TestBufferHitsCounted verifies the Fujitsu track buffer shows up in
// the driver statistics.
func TestBufferHitsCounted(t *testing.T) {
	eng, dsk, drv := newFujitsuRig(t)
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

// TestSeekArithmetic checks the paper's own arithmetic (Section 5.2)
// across the driver, the seek curve and the disk, over one measured
// window on fault-free Toshiba and Fujitsu rigs: the scheduled-order
// distances add up to the disk's head travel, the disk's seek curve
// priced over them adds up to the seek times the registry recorded, and
// the distribution holds every request the registry counted.
func TestSeekArithmetic(t *testing.T) {
	for _, tc := range []struct {
		name     string
		rig      func(testing.TB) (*sim.Engine, *disk.Disk, *Driver)
		buffered bool // the disk has a read-ahead track buffer
	}{{"toshiba", newRig, false}, {"fujitsu", newFujitsuRig, true}} {
		t.Run(tc.name, func(t *testing.T) {
			eng, dsk, drv := tc.rig(t)
			p, _ := drv.Label().Partition(0)
			blocks := p.Size / 16
			rnd := sim.NewRand(0xA5)
			for i := 0; i < 40; i++ { // populate, before the window
				drv.WriteBlock(0, rnd.Int63n(blocks), blockOf(byte(i)), nil)
			}
			eng.Run()

			drv.ReadStats()
			reg := metrics.NewRegistry()
			drv.BindMetrics(reg)
			requests := func() float64 {
				for _, m := range reg.Snapshot().Metrics {
					if m.Name == "driver_requests" {
						return m.Value
					}
				}
				t.Fatal("driver_requests not registered")
				return 0
			}
			cyl0, req0 := dsk.SeekCylinders(), requests()
			_, _, hits0 := dsk.Counters()
			start := eng.Now()
			for i := 0; i < 300; i++ {
				blk, write := rnd.Int63n(blocks), rnd.Bool(0.3)
				eng.At(start+float64(rnd.Intn(15000)), func() {
					if write {
						drv.WriteBlock(0, blk, blockOf(1), nil)
					} else {
						drv.ReadBlock(0, blk, nil)
					}
				})
			}
			// A spaced sequential run: the Fujitsu's read-ahead serves it.
			for i := int64(0); i < 30; i++ {
				blk := 1000 + i
				eng.At(start+16000+float64(30*i), func() { drv.ReadBlock(0, blk, nil) })
			}
			eng.Run()

			sched := drv.ReadStats().All().SchedDist
			var cyls int64
			var seekMS float64
			curve := dsk.Model().Seek
			for d, c := range sched.counts {
				cyls += int64(d) * c
				seekMS += float64(c) * curve.SeekMS(d)
			}
			if moved := dsk.SeekCylinders() - cyl0; cyls != moved {
				t.Errorf("scheduled distances add up to %d cylinders, the disk moved %d", cyls, moved)
			}
			got := reg.Histogram("driver_seek_ms", metrics.HistogramOpts{}).Sum()
			if math.Abs(seekMS-got) > 1e-9*got || got == 0 {
				t.Errorf("curve over the distances gives %v ms of seeks, driver_seek_ms %v", seekMS, got)
			}
			if n := requests() - req0; float64(sched.Count()) != n || n < 330 {
				t.Errorf("%d seeks in the distribution, driver_requests rose by %v", sched.Count(), n)
			}
			if _, _, hits := dsk.Counters(); (hits > hits0) != tc.buffered {
				t.Errorf("%d track-buffer hits in the window", hits-hits0)
			}
		})
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
	wait2 = st.ReadSide.QueueMS // first waited 0
	if math.Abs(wait2-svc1) > 1e-6 {
		t.Errorf("second request waited %.3f ms, want first's service %.3f ms", wait2, svc1)
	}
}

// TestStatsHistogramResolution verifies Section 4.1.5's accounting
// against the driver's own spans: the service-time distribution at
// 1 ms resolution, and the service and queueing sums at full
// resolution.
func TestStatsHistogramResolution(t *testing.T) {
	eng, _, drv := newRig(t)
	var svc []float64
	var svcSum, queueSum float64
	drv.SetSink(telemetry.SinkFunc(func(e *telemetry.Event) {
		if e.Kind == telemetry.KindSpan && !e.Internal {
			v := e.CompleteMS - e.DispatchMS
			svc = append(svc, v)
			svcSum += v
			queueSum += e.DispatchMS - e.ArriveMS
		}
	}))
	// A burst queues behind the head; the spaced reads do not.
	for i := int64(0); i < 20; i++ {
		drv.ReadBlock(0, i*137, nil)
	}
	for i := int64(0); i < 20; i++ {
		blk := 5000 + i*311
		eng.At(float64(200+40*i), func() { drv.ReadBlock(0, blk, nil) })
	}
	eng.Run()
	side := drv.ReadStats().ReadSide
	if side.Count() != int64(len(svc)) || side.Count() != 40 {
		t.Fatalf("%d requests counted, %d spans", side.Count(), len(svc))
	}
	for x := 0; x <= 128; x++ {
		var want int64
		for _, v := range svc {
			if int(v) < x {
				want++
			}
		}
		if got := side.Service.CountBelow(float64(x)); got != want {
			t.Errorf("%d requests below %d ms, want %d", got, x, want)
		}
	}
	if side.Service.Sum() != svcSum || side.QueueMS != queueSum {
		t.Errorf("sums %v/%v ms, spans %v/%v ms", side.Service.Sum(), side.QueueMS, svcSum, queueSum)
	}
	if m := side.MeanServiceMS(); m == math.Trunc(m) {
		t.Errorf("mean service %v ms is whole: not full resolution", m)
	}
}

// TestDistHistAddZeroAllocs: once the counts cover the disk's distances,
// recording a seek is an indexed increment.
func TestDistHistAddZeroAllocs(t *testing.T) {
	h := &DistHist{}
	h.Add(1500)
	d := 0
	if n := testing.AllocsPerRun(1000, func() {
		h.Add(d % 1501)
		d += 37
	}); n != 0 {
		t.Errorf("Add: %v allocs per seek, want 0", n)
	}
}

func TestDistHist(t *testing.T) {
	var h DistHist
	h.Add(0)
	h.Add(0)
	h.Add(10)
	h.Add(-10) // abs
	if h.Count() != 4 {
		t.Errorf("Count = %d", h.Count())
	}
	if got := h.MeanDist(); math.Abs(got-5) > 1e-12 {
		t.Errorf("MeanDist = %v, want 5", got)
	}
	if got := h.ZeroFrac(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ZeroFrac = %v, want 0.5", got)
	}
}

func TestDistHistSeekTime(t *testing.T) {
	var h DistHist
	h.Add(0)
	h.Add(100)
	l := seek.Linear{StartupMS: 2, PerCylMS: 0.01}
	// times: 0 and 3 -> mean 1.5
	if got := h.MeanSeekMS(l); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("MeanSeekMS = %v, want 1.5", got)
	}
}

func TestDistHistMergeHistogram(t *testing.T) {
	var a, b DistHist
	a.Add(1)
	b.Add(1)
	b.Add(2)
	a.Merge(&b)
	// Two seeks of 1 and one of 2: under this curve a seek of d > 0
	// costs d+1 ms, so the seek mean is the mean distance plus 1.
	l := seek.Linear{StartupMS: 1, PerCylMS: 1}
	if a.Count() != 3 || a.MeanDist() != 4.0/3 || a.MeanSeekMS(l) != 7.0/3 {
		t.Errorf("merged: count %d, mean %v cylinders, %v ms", a.Count(), a.MeanDist(), a.MeanSeekMS(l))
	}
	// The merge copied b's counts.
	b.Add(2)
	if a.Count() != 3 || a.MeanDist() != 4.0/3 {
		t.Error("merged histogram shares its source's counts")
	}
}

func TestDistHistEmpty(t *testing.T) {
	var h DistHist
	if h.Count() != 0 || h.MeanDist() != 0 || h.ZeroFrac() != 0 || h.MeanSeekMS(seek.ToshibaMK156F) != 0 {
		t.Error("empty DistHist should report zeros")
	}
}

// meanMS is the reference for DistHist.MeanSeekMS: the mean seek time
// of curve c over a distance histogram (hist[d] seeks of distance d),
// summed in sorted distance order, or 0 for an empty histogram.
func meanMS(c seek.Curve, hist map[int]int64) float64 {
	keys := make([]int, 0, len(hist))
	for d := range hist {
		keys = append(keys, d)
	}
	sort.Ints(keys)
	var n int64
	var sum float64
	for _, d := range keys {
		cnt := hist[d]
		if cnt <= 0 {
			continue
		}
		n += cnt
		sum += float64(float64(cnt) * c.SeekMS(d))
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func TestMeanMS(t *testing.T) {
	l := seek.Linear{StartupMS: 1, PerCylMS: 1}
	hist := map[int]int64{0: 2, 1: 1, 3: 1} // times: 0,0,2,4 -> mean 1.5
	if got := meanMS(l, hist); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("meanMS = %v, want 1.5", got)
	}
}

// seekStream adds n seeks of up to maxDist cylinders, in either
// direction, to h, and the same distances to ref.
func seekStream(h *DistHist, ref map[int]int64, rnd *sim.Rand, n, maxDist int) {
	for i := 0; i < n; i++ {
		d := rnd.Intn(maxDist + 1)
		if rnd.Bool(0.3) {
			d = 0 // the rearranged layout's share of zero-length seeks
		}
		ref[d]++
		if rnd.Bool(0.5) {
			d = -d
		}
		h.Add(d)
	}
}

// TestDistHistMeanSeekMSBitEqual holds the dense histogram to a map of
// the distances added, |d| for a negative d: its seek mean to meanMS to
// the bit, and its count, mean distance and zero share exactly, on
// random streams and after merging histograms of unequal length in
// both directions.
func TestDistHistMeanSeekMSBitEqual(t *testing.T) {
	curves := []seek.Curve{seek.ToshibaMK156F, seek.FujitsuM2266}
	check := func(what string, h *DistHist, ref map[int]int64) {
		t.Helper()
		for _, c := range curves {
			if got, want := h.MeanSeekMS(c), meanMS(c, ref); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: MeanSeekMS = %v, reference %v", what, got, want)
			}
		}
		var n, sum int64
		for d, c := range ref {
			n += c
			sum += int64(d) * c
		}
		var dist, zero float64
		if n > 0 {
			dist, zero = float64(sum)/float64(n), float64(ref[0])/float64(n)
		}
		if h.Count() != n || h.MeanDist() != dist || h.ZeroFrac() != zero {
			t.Fatalf("%s: count %d, mean %v, zero share %v; reference %d, %v, %v",
				what, h.Count(), h.MeanDist(), h.ZeroFrac(), n, dist, zero)
		}
	}
	check("empty", &DistHist{}, map[int]int64{})
	rnd := sim.NewRand(0x5EEC)
	for trial := 0; trial < 50; trial++ {
		short, long := &DistHist{}, &DistHist{}
		shortRef, longRef := map[int]int64{}, map[int]int64{}
		seekStream(short, shortRef, rnd, 1+rnd.Intn(500), 1+rnd.Intn(60))
		seekStream(long, longRef, rnd, 1+rnd.Intn(5000), 200+rnd.Intn(2000))
		check("short stream", short, shortRef)
		check("long stream", long, longRef)

		both := map[int]int64{}
		for _, ref := range []map[int]int64{shortRef, longRef} {
			for d, c := range ref {
				both[d] += c
			}
		}
		grown, kept := &DistHist{}, &DistHist{}
		grown.Merge(short)
		grown.Merge(long) // grows to long's length
		kept.Merge(long)
		kept.Merge(short) // already longer than short
		check("short+long", grown, both)
		check("long+short", kept, both)
	}
}
