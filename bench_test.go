// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 5), plus the ablation benchmarks DESIGN.md calls
// out and micro-benchmarks of the hot code paths.
//
// Each table/figure benchmark runs the corresponding experiment at a
// compressed day window (the shapes are stable; see EXPERIMENTS.md for
// the full-window numbers) and reports its headline quantities via
// b.ReportMetric, so `go test -bench` output can be compared to the
// paper directly.
package repro_test

import (
	"context"

	"testing"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/hotlist"
	"repro/internal/rig"
	"repro/internal/seek"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchOpts compresses the measured window to one hour per day so the
// full -bench suite completes in minutes.
func benchOpts() experiment.Options {
	return experiment.Options{Days: 4, WindowMS: 1 * workload.HourMS}
}

func reportOnOff(b *testing.B, res *experiment.OnOff, side experiment.Side, prefix string) {
	b.Helper()
	for _, dr := range []struct {
		name string
		run  *experiment.Run
	}{{"tosh", res.Toshiba}, {"fuji", res.Fujitsu}} {
		offSum := experiment.Summarize(dr.run.OffDays(), dr.run.Curve, side)
		onSum := experiment.Summarize(dr.run.OnDays(), dr.run.Curve, side)
		b.ReportMetric(offSum.Seek.Avg(), prefix+dr.name+"_seekOff_ms")
		b.ReportMetric(onSum.Seek.Avg(), prefix+dr.name+"_seekOn_ms")
		b.ReportMetric(offSum.Service.Avg(), prefix+dr.name+"_svcOff_ms")
		b.ReportMetric(onSum.Service.Avg(), prefix+dr.name+"_svcOn_ms")
		b.ReportMetric(offSum.Wait.Avg(), prefix+dr.name+"_waitOff_ms")
		b.ReportMetric(onSum.Wait.Avg(), prefix+dr.name+"_waitOn_ms")
	}
}

// BenchmarkTable1SeekCurves validates the Table 1 seek-time models over
// every possible distance on both disks.
func BenchmarkTable1SeekCurves(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for d := 0; d < 815; d++ {
			sink += seek.ToshibaMK156F.SeekMS(d)
		}
		for d := 0; d < 1658; d++ {
			sink += seek.FujitsuM2266.SeekMS(d)
		}
	}
	b.ReportMetric(seek.ToshibaMK156F.SeekMS(815/3), "toshAvgThirdStroke_ms")
	b.ReportMetric(seek.FujitsuM2266.SeekMS(1658/3), "fujiAvgThirdStroke_ms")
	_ = sink
}

// BenchmarkTable2OnOffSystem regenerates Table 2: on/off daily means,
// system file system, both disks. Paper: seek ~19.5 -> ~1.2 ms
// (Toshiba), ~8.1 -> ~0.9 ms (Fujitsu).
func BenchmarkTable2OnOffSystem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunOnOff(context.Background(), "system", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportOnOff(b, res, experiment.AllRequests, "")
	}
}

// BenchmarkTable3DayDetail regenerates Table 3: per-day detail including
// FCFS baselines and zero-length-seek fractions. Paper: zero-length
// seeks jump from ~25% to 76-88%.
func BenchmarkTable3DayDetail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunOnOff(context.Background(), "system", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		rep := experiment.Table3(res)
		if len(rep.Rows) == 0 {
			b.Fatal("empty table")
		}
		for _, dr := range []*experiment.Run{res.Toshiba, res.Fujitsu} {
			offs, ons := dr.OffDays(), dr.OnDays()
			off := offs[len(offs)-1].Metrics(dr.Curve, experiment.AllRequests)
			on := ons[len(ons)-1].Metrics(dr.Curve, experiment.AllRequests)
			b.ReportMetric(off.ZeroSeekPct, dr.Experiment.Devices.Disk+"_zeroOff_pct")
			b.ReportMetric(on.ZeroSeekPct, dr.Experiment.Devices.Disk+"_zeroOn_pct")
			b.ReportMetric(off.FCFSDist, dr.Experiment.Devices.Disk+"_fcfsDist_cyl")
		}
	}
}

// BenchmarkTable4ReadsOnly regenerates Table 4: the system experiment
// restricted to reads. Paper: reads improve less than the full workload.
func BenchmarkTable4ReadsOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunOnOff(context.Background(), "system", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportOnOff(b, res, experiment.ReadsOnly, "rd_")
	}
}

// BenchmarkTable5OnOffUsers regenerates Table 5: the users file system.
// Paper: seek reductions only ~30-35%.
func BenchmarkTable5OnOffUsers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunOnOff(context.Background(), "users", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportOnOff(b, res, experiment.AllRequests, "")
	}
}

// BenchmarkTable6UsersReads regenerates Table 6: users, reads only.
func BenchmarkTable6UsersReads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunOnOff(context.Background(), "users", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportOnOff(b, res, experiment.ReadsOnly, "rd_")
	}
}

func policyOpts() experiment.Options {
	return experiment.Options{Days: 3, WindowMS: 1 * workload.HourMS}
}

// BenchmarkTable7Policies regenerates Table 7: percentage seek-time
// reduction per placement policy. Paper: organ-pipe >= interleaved >>
// serial on both disks.
func BenchmarkTable7Policies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunPolicies(context.Background(), policyOpts())
		if err != nil {
			b.Fatal(err)
		}
		for d, runs := range res.Runs {
			for p, run := range runs {
				ons := run.OnDays()
				var sum float64
				for _, day := range ons {
					sum += experiment.SeekReductionPct(day.Metrics(run.Curve, experiment.AllRequests))
				}
				b.ReportMetric(sum/float64(len(ons)), d+"_"+p+"_redPct")
			}
		}
	}
}

// BenchmarkTable8PolicyToshiba regenerates Table 8: per-policy detail on
// the Toshiba disk, including zero-length-seek fractions (paper: 88/83/26).
func BenchmarkTable8PolicyToshiba(b *testing.B) {
	benchmarkPolicyDetail(b, "toshiba")
}

// BenchmarkTable9PolicyFujitsu regenerates Table 9: the Fujitsu detail.
func BenchmarkTable9PolicyFujitsu(b *testing.B) {
	benchmarkPolicyDetail(b, "fujitsu")
}

func benchmarkPolicyDetail(b *testing.B, diskName string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunPolicies(context.Background(), policyOpts())
		if err != nil {
			b.Fatal(err)
		}
		for p, run := range res.Runs[diskName] {
			ons := run.OnDays()
			on := ons[len(ons)-1].Metrics(run.Curve, experiment.AllRequests)
			b.ReportMetric(on.ZeroSeekPct, p+"_zero_pct")
			b.ReportMetric(on.SeekMS, p+"_seek_ms")
			b.ReportMetric(on.ServiceMS, p+"_svc_ms")
		}
	}
}

// BenchmarkTable10Rotational regenerates Table 10: rotational latency +
// transfer time per placement policy (Toshiba, reads). Paper: organ-pipe
// and serial add ~1 ms vs no rearrangement; interleaved preserves it.
func BenchmarkTable10Rotational(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunPolicies(context.Background(), policyOpts())
		if err != nil {
			b.Fatal(err)
		}
		orgRun := res.Runs["toshiba"]["organ-pipe"]
		off := orgRun.OffDays()
		b.ReportMetric(off[len(off)-1].Metrics(orgRun.Curve, experiment.ReadsOnly).RotTransferMS, "none_ms")
		for p, run := range res.Runs["toshiba"] {
			ons := run.OnDays()
			on := ons[len(ons)-1].Metrics(run.Curve, experiment.ReadsOnly)
			b.ReportMetric(on.RotTransferMS, p+"_ms")
		}
	}
}

// BenchmarkFigure4ServiceCDF regenerates Figure 4: the service-time CDFs
// of an off and an on day (system fs, Fujitsu). Paper anchor at 20 ms:
// off ~0.50, on ~0.85.
func BenchmarkFigure4ServiceCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunOnOff(context.Background(), "system", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		offs, ons := res.Fujitsu.OffDays(), res.Fujitsu.OnDays()
		off := offs[len(offs)-1].Stats.All().Service
		on := ons[len(ons)-1].Stats.All().Service
		b.ReportMetric(off.FracBelow(20), "offAt20ms_frac")
		b.ReportMetric(on.FracBelow(20), "onAt20ms_frac")
	}
}

// BenchmarkFigure5AccessDist regenerates Figure 5: the system file
// system's block-access distribution. Paper: top-100 blocks absorb ~90%
// of requests; fewer than 2000 distinct blocks are touched.
func BenchmarkFigure5AccessDist(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunOnOff(context.Background(), "system", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		offs := res.Toshiba.OffDays()
		dist := offs[len(offs)-1].AccessDist
		b.ReportMetric(share(dist, 100), "top100_frac")
		b.ReportMetric(float64(len(dist)), "distinctBlocks")
	}
}

// BenchmarkFigure6UsersCDF regenerates Figure 6: users-fs service CDFs.
func BenchmarkFigure6UsersCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunOnOff(context.Background(), "users", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		offs, ons := res.Fujitsu.OffDays(), res.Fujitsu.OnDays()
		off := offs[len(offs)-1].Stats.All().Service
		on := ons[len(ons)-1].Stats.All().Service
		b.ReportMetric(off.FracBelow(20), "offAt20ms_frac")
		b.ReportMetric(on.FracBelow(20), "onAt20ms_frac")
	}
}

// BenchmarkFigure7UsersAccessDist regenerates Figure 7: the users file
// system's flatter distribution.
func BenchmarkFigure7UsersAccessDist(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunOnOff(context.Background(), "users", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		offs := res.Toshiba.OffDays()
		dist := offs[len(offs)-1].AccessDist
		b.ReportMetric(share(dist, 100), "top100_frac")
		b.ReportMetric(float64(len(dist)), "distinctBlocks")
	}
}

// BenchmarkFigure8BlockSweep regenerates Figure 8: seek reduction vs the
// number of rearranged blocks. Paper: a steep knee near ~100 blocks.
func BenchmarkFigure8BlockSweep(b *testing.B) {
	counts := []int{25, 100, 400, 1018}
	for i := 0; i < b.N; i++ {
		points, err := experiment.RunBlockSweep(context.Background(),
			experiment.Options{Days: 2, WindowMS: 1 * workload.HourMS}, counts)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.ReportMetric(p.TimeRedPct, nameOfInt(p.Blocks)+"blocks_redPct")
		}
	}
}

// BenchmarkAblationScheduling quantifies the SCAN/rearrangement synergy
// claim of Section 5.2 by running the rearranged system under four head
// schedulers.
func BenchmarkAblationScheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range []string{"fcfs", "scan", "cscan", "sstf"} {
			run, err := experiment.Execute(context.Background(), experiment.Experiment{
				Devices: experiment.Devices{Sched: s}, Rearrange: &experiment.Rearrange{}, Days: 2, WindowMS: 1 * workload.HourMS,
				OnPattern: func(day int) bool { return day > 0 },
			})
			if err != nil {
				b.Fatal(err)
			}
			ons := run.OnDays()
			m := ons[len(ons)-1].Metrics(run.Curve, experiment.AllRequests)
			b.ReportMetric(m.SeekMS, s+"_seekOn_ms")
			b.ReportMetric(m.WaitMS, s+"_waitOn_ms")
			b.ReportMetric(m.ZeroSeekPct, s+"_zeroOn_pct")
		}
	}
}

// BenchmarkAblationHotlistSize compares bounded analyzer lists against
// the exact counter (the space-efficient estimation claim of [Salem 93]).
func BenchmarkAblationHotlistSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, size := range []int{64, 256, 1024, 0} { // 0 = exact
			run, err := experiment.Execute(context.Background(), experiment.Experiment{
				Rearrange: &experiment.Rearrange{HotlistSize: size}, Days: 2, WindowMS: 1 * workload.HourMS,
				OnPattern: func(day int) bool { return day > 0 },
			})
			if err != nil {
				b.Fatal(err)
			}
			ons := run.OnDays()
			m := ons[len(ons)-1].Metrics(run.Curve, experiment.AllRequests)
			name := "exact"
			if size > 0 {
				name = nameOfInt(size)
			}
			b.ReportMetric(m.SeekMS, name+"_seekOn_ms")
		}
	}
}

// BenchmarkAblationReservedLocation tests the organ-pipe assumption that
// the reserved region belongs at the disk's center, against an
// edge-located region of the same size.
func BenchmarkAblationReservedLocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, loc := range []struct {
			name  string
			first int
		}{{"center", 0}, {"edge", 4}} {
			run, err := experiment.Execute(context.Background(), experiment.Experiment{
				Devices: experiment.Devices{ReservedFirstCyl: loc.first}, Rearrange: &experiment.Rearrange{}, Days: 2, WindowMS: 1 * workload.HourMS,
				OnPattern: func(day int) bool { return day > 0 },
			})
			if err != nil {
				b.Fatal(err)
			}
			ons := run.OnDays()
			m := ons[len(ons)-1].Metrics(run.Curve, experiment.AllRequests)
			b.ReportMetric(m.SeekMS, loc.name+"_seekOn_ms")
		}
	}
}

// BenchmarkAblationMonitorPeriod varies the analyzer's request-table
// polling period around the paper's two minutes.
func BenchmarkAblationMonitorPeriod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, period := range []float64{30_000, 120_000, 600_000} {
			run, err := experiment.Execute(context.Background(), experiment.Experiment{
				Rearrange: &experiment.Rearrange{PollPeriodMS: period}, Days: 2, WindowMS: 1 * workload.HourMS,
				OnPattern: func(day int) bool { return day > 0 },
			})
			if err != nil {
				b.Fatal(err)
			}
			ons := run.OnDays()
			m := ons[len(ons)-1].Metrics(run.Curve, experiment.AllRequests)
			b.ReportMetric(m.SeekMS, nameOfInt(int(period/1000))+"s_seekOn_ms")
		}
	}
}

// BenchmarkAblationCylinderShuffle compares block-granularity
// rearrangement against the cylinder-granularity baseline of
// [Vongsath 90] (same data volume, coarser choice), supporting the
// paper's granularity argument.
func BenchmarkAblationCylinderShuffle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range []string{"organ-pipe", "cylinder"} {
			run, err := experiment.Execute(context.Background(), experiment.Experiment{
				Rearrange: &experiment.Rearrange{Policy: p}, Days: 2, WindowMS: 1 * workload.HourMS,
				OnPattern: func(day int) bool { return day > 0 },
			})
			if err != nil {
				b.Fatal(err)
			}
			ons := run.OnDays()
			m := ons[len(ons)-1].Metrics(run.Curve, experiment.AllRequests)
			b.ReportMetric(m.SeekMS, p+"_seekOn_ms")
			b.ReportMetric(m.ZeroSeekPct, p+"_zeroOn_pct")
		}
	}
}

// BenchmarkAblationIncrementalRearrange compares the I/O cost of a full
// daily rearrangement cycle (clean everything + copy everything) against
// the incremental cycle that moves only the day-to-day difference — the
// benefit the paper credits block granularity with (Section 1.1).
func BenchmarkAblationIncrementalRearrange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := rig.New(rig.Options{ReservedCyls: 48})
		if err != nil {
			b.Fatal(err)
		}
		ra, err := core.New(r.Eng, r.Driver, core.Config{MaxBlocks: 400})
		if err != nil {
			b.Fatal(err)
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
		}
		// Day 1 trains; full rearrangement installs everything.
		day()
		ra.Poll()
		ra.Rearrange(nil)
		r.Eng.Run()

		// Day 2 drifts slightly: a handful of ranks change.
		ra.ResetCounts()
		for j := 0; j < 10; j++ {
			hot[rnd.Intn(len(hot))] = rnd.Int63n(nblocks)
		}
		day()
		ra.Poll()

		// Full cycle cost vs incremental cycle cost, in internal disk
		// operations (reads+writes observed at the disk).
		r0r, r0w, _ := r.Disk.Counters()
		var fullMoved int
		ra.RearrangeIncremental(func(n int, err error) {
			if err != nil {
				b.Fatal(err)
			}
			fullMoved = n
		})
		r.Eng.Run()
		r1r, r1w, _ := r.Disk.Counters()
		b.ReportMetric(float64(fullMoved), "incrementalMoved_blocks")
		b.ReportMetric(float64((r1r-r0r)+(r1w-r0w)), "incrementalIOs")
		b.ReportMetric(400, "fullCycleMoved_blocks")
	}
}

// BenchmarkDriverStrategy measures the driver's per-request overhead
// (address translation, block-table lookup, queueing, dispatch).
func BenchmarkDriverStrategy(b *testing.B) {
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		b.Fatal(err)
	}
	nblocks := r.PartitionBlocks(0)
	rnd := sim.NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Driver.ReadBlock(0, rnd.Int63n(nblocks), nil)
		if i%64 == 63 {
			r.Eng.Run()
		}
	}
	r.Eng.Run()
}

// BenchmarkPlacementPolicies measures the arranger's placement
// computation for a full reserved region.
func BenchmarkPlacementPolicies(b *testing.B) {
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		b.Fatal(err)
	}
	slots := r.Driver.ReservedSlots()
	hot := make([]hotlist.BlockCount, 2000)
	for i := range hot {
		hot[i] = hotlist.BlockCount{Block: int64(i) * 16 * 7, Count: int64(2000 - i)}
	}
	for _, name := range []string{"organ-pipe", "interleaved", "serial"} {
		b.Run(name, func(b *testing.B) {
			p, err := core.NewPolicy(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if moves := p.Place(hot, slots, 1018, geom.Block8K); len(moves) == 0 {
					b.Fatal("no moves")
				}
			}
		})
	}
}

// BenchmarkDiskModel measures the mechanical disk model's service
// computation.
func BenchmarkDiskModel(b *testing.B) {
	d := disk.MustNew(disk.Toshiba())
	rnd := sim.NewRand(1)
	total := d.Geom().TotalSectors()
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := rnd.Int63n(total-16) / 16 * 16
		_, tm, err := d.Read(now, s, 16)
		if err != nil {
			b.Fatal(err)
		}
		now += tm.TotalMS()
	}
}

func share(dist []hotlist.BlockCount, k int) float64 {
	var tot, top int64
	for i, bc := range dist {
		tot += bc.Count
		if i < k {
			top += bc.Count
		}
	}
	if tot == 0 {
		return 0
	}
	return float64(top) / float64(tot)
}

func nameOfInt(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
