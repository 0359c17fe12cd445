package experiment

import (
	"context"
	"fmt"

	"repro/internal/hotlist"
	"repro/internal/plot"
	"repro/internal/runner"
)

// cdfTable renders a service-time CDF comparison (Figures 4 and 6): the
// fraction of requests completing within t milliseconds on an off day
// and an on day of the Fujitsu run.
func cdfTable(id, title string, run *Run) *Report {
	rep := &Report{
		ID:      id,
		Title:   title,
		Columns: []string{"Service time (ms)", "Off day (frac <=)", "On day (frac <=)"},
	}
	off, on := detailDays(run)
	if off.Stats == nil || on.Stats == nil {
		rep.AddNote("insufficient days to plot")
		return rep
	}
	offSvc := off.Stats.All().Service
	onSvc := on.Stats.All().Service
	for _, ms := range []float64{5, 10, 15, 20, 25, 30, 40, 50, 60, 80, 100} {
		rep.AddRow(f0(ms), fmt.Sprintf("%.3f", offSvc.FracBelow(ms)), fmt.Sprintf("%.3f", onSvc.FracBelow(ms)))
	}
	return rep
}

// Figure4 renders Figure 4: service-time distributions for the system
// file system on the Fujitsu disk. The paper's anchor: without
// rearrangement ~50% of requests complete within 20 ms; with it, ~85%.
func Figure4(res *OnOff) *Report {
	rep := cdfTable("fig4", "Service time distribution, system fs, Fujitsu (on vs off day)", res.Fujitsu)
	rep.AddNote("paper anchor at 20 ms: off ~0.50, on ~0.85")
	return rep
}

// Figure6 renders Figure 6: service-time distributions for the users
// file system on the Fujitsu disk (a smaller on/off separation than
// Figure 4).
func Figure6(res *OnOff) *Report {
	rep := cdfTable("fig6", "Service time distribution, users fs, Fujitsu (on vs off day)", res.Fujitsu)
	rep.AddNote("paper shape: rearrangement still helps, but less than for the system fs")
	return rep
}

// cumShare returns the fraction of references absorbed by the k hottest
// blocks of a distribution.
func cumShare(dist []hotlist.BlockCount, k int) float64 {
	var total, top int64
	for i, bc := range dist {
		total += bc.Count
		if i < k {
			top += bc.Count
		}
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}

// accessDistTable renders a block-access distribution (Figures 5 and 7):
// the cumulative fraction of requests absorbed by the N hottest blocks,
// for all requests and for reads, on each disk. It uses a representative
// off day (the distribution itself is layout-independent).
func accessDistTable(id, title string, res *OnOff) *Report {
	rep := &Report{
		ID:    id,
		Title: title,
		Columns: []string{"Hottest N blocks",
			"Tosh all", "Tosh reads", "Fuji all", "Fuji reads"},
	}
	tOff, _ := detailDays(res.Toshiba)
	fOff, _ := detailDays(res.Fujitsu)
	for _, k := range []int{1, 10, 50, 100, 200, 500, 1000, 2000, 5000} {
		rep.AddRow(fmt.Sprint(k),
			fmt.Sprintf("%.3f", cumShare(tOff.AccessDist, k)),
			fmt.Sprintf("%.3f", cumShare(tOff.ReadDist, k)),
			fmt.Sprintf("%.3f", cumShare(fOff.AccessDist, k)),
			fmt.Sprintf("%.3f", cumShare(fOff.ReadDist, k)))
	}
	rep.AddRow("distinct blocks",
		fmt.Sprint(len(tOff.AccessDist)), fmt.Sprint(len(tOff.ReadDist)),
		fmt.Sprint(len(fOff.AccessDist)), fmt.Sprint(len(fOff.ReadDist)))
	return rep
}

// Figure5 renders Figure 5: the block-access distribution of the system
// file system. The paper's anchors: the 100 hottest blocks absorb ~90%
// of requests and fewer than 2000 blocks absorb all of them.
func Figure5(res *OnOff) *Report {
	rep := accessDistTable("fig5", "Distribution of block accesses, system file system", res)
	rep.AddNote("paper anchors: top-100 ~0.90 of all requests; <2000 distinct blocks; reads slightly less skewed than all requests")
	return rep
}

// Figure7 renders Figure 7: the users file system's much flatter
// distribution.
func Figure7(res *OnOff) *Report {
	rep := accessDistTable("fig7", "Distribution of block accesses, users file system", res)
	rep.AddNote("paper shape: markedly less skewed than the system fs (Figure 5)")
	return rep
}

// SweepPoint is one point of the Figure 8 sweep.
type SweepPoint struct {
	Blocks int
	// DistRedPct and TimeRedPct are the reductions in daily mean seek
	// distance and seek time over all requests; the Read variants cover
	// read requests only. All are relative to FCFS arrival order with
	// no rearrangement, as in the paper.
	DistRedPct     float64
	TimeRedPct     float64
	ReadDistRedPct float64
	ReadTimeRedPct float64
}

// DefaultSweepBlocks are the Figure 8 sweep sizes (the Toshiba reserved
// region holds at most 1018 blocks).
var DefaultSweepBlocks = []int{25, 50, 100, 200, 400, 600, 800, 1018}

// RunBlockSweep executes the Figure 8 experiment — the system file
// system on the Toshiba disk with a varying number of rearranged blocks
// — running the per-count configurations in parallel on the job runner
// (o.Jobs workers). Points come back in the order of counts regardless
// of scheduling.
func RunBlockSweep(ctx context.Context, o Options, counts []int) ([]SweepPoint, error) {
	if len(counts) == 0 {
		counts = DefaultSweepBlocks
	}
	nd := needTable[NeedSweep]
	units, err := experimentUnits(nd.prefix, sweepConfigs(o, counts), nd.apply)
	if err != nil {
		return nil, err
	}
	rs, err := runUnits(ctx, units, o, runner.Config{Workers: o.Jobs})
	if err != nil {
		return nil, err
	}
	return rs.Sweep, nil
}

// Figure8 renders Figure 8: percentage reduction in daily mean seek
// distance and time as a function of the number of rearranged blocks
// (Toshiba, system fs).
func Figure8(points []SweepPoint) *Report {
	rep := &Report{
		ID:    "fig8",
		Title: "Seek reduction vs number of rearranged blocks (Toshiba, system fs)",
		Columns: []string{"Blocks",
			"Dist red % (all)", "Time red % (all)",
			"Dist red % (reads)", "Time red % (reads)"},
	}
	for _, p := range points {
		rep.AddRow(fmt.Sprint(p.Blocks),
			f1(p.DistRedPct), f1(p.TimeRedPct),
			f1(p.ReadDistRedPct), f1(p.ReadTimeRedPct))
	}
	rep.AddNote("paper shape: steep knee - the marginal benefit beyond ~100 blocks is small (the 100 hottest blocks absorb ~90 percent of requests)")
	return rep
}

func cdfChart(title string, run *Run) plot.Chart {
	off, on := detailDays(run)
	mk := func(d DayResult) ([]float64, []float64) {
		var xs, ys []float64
		if d.Stats == nil {
			return xs, ys
		}
		for _, pt := range d.Stats.All().Service.CDF() {
			if pt.X > 60 {
				break
			}
			xs = append(xs, pt.X)
			ys = append(ys, pt.Frac)
		}
		return xs, ys
	}
	offX, offY := mk(off)
	onX, onY := mk(on)
	return plot.Chart{
		Title:  title,
		XLabel: "service time (ms)",
		YLabel: "fraction of requests",
		YMin:   0, YMax: 1,
		Series: []plot.Series{
			{Name: "off day", X: offX, Y: offY, Mark: 'o'},
			{Name: "on day", X: onX, Y: onY, Mark: '*'},
		},
	}
}

func accessChart(title string, run *Run) plot.Chart {
	off, _ := detailDays(run)
	mk := func(dist []hotlist.BlockCount) ([]float64, []float64) {
		var xs, ys []float64
		var total, cum int64
		for _, bc := range dist {
			total += bc.Count
		}
		if total == 0 {
			return xs, ys
		}
		for i, bc := range dist {
			cum += bc.Count
			// Sample ranks logarithmically to keep point counts sane.
			if i < 10 || (i+1)%max(1, len(dist)/128) == 0 {
				xs = append(xs, float64(i+1))
				ys = append(ys, float64(cum)/float64(total))
			}
		}
		return xs, ys
	}
	allX, allY := mk(off.AccessDist)
	rdX, rdY := mk(off.ReadDist)
	return plot.Chart{
		Title:  title,
		XLabel: "hottest N blocks (log scale)",
		YLabel: "cumulative fraction of requests",
		LogX:   true,
		YMin:   0, YMax: 1,
		Series: []plot.Series{
			{Name: "all requests", X: allX, Y: allY, Mark: '*'},
			{Name: "reads", X: rdX, Y: rdY, Mark: 'o'},
		},
	}
}

// Figure8Chart renders the Figure 8 sweep curves.
func Figure8Chart(points []SweepPoint) plot.Chart {
	var xs, all, reads []float64
	for _, p := range points {
		xs = append(xs, float64(p.Blocks))
		all = append(all, p.TimeRedPct)
		reads = append(reads, p.ReadTimeRedPct)
	}
	return plot.Chart{
		Title:  "Figure 8: seek time reduction vs rearranged blocks (Toshiba)",
		XLabel: "rearranged blocks",
		YLabel: "seek time reduction (%)",
		YMin:   0, YMax: 100,
		Series: []plot.Series{
			{Name: "all requests", X: xs, Y: all, Mark: '*'},
			{Name: "reads", X: xs, Y: reads, Mark: 'o'},
		},
	}
}
