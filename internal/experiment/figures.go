package experiment

import (
	"fmt"

	"repro/internal/hotlist"
	"repro/internal/metrics"
	"repro/internal/plot"
)

// cdfFigure renders a service-time CDF comparison (Figures 4 and 6) from
// an off day and an on day of the Fujitsu run: a table of the fraction of
// requests completing within t milliseconds, then the curves up to 60 ms.
func cdfFigure(id, title, chartTitle, note string, runs []*Run) []Renderable {
	rep := &Report{
		ID:      id,
		Title:   title,
		Columns: []string{"Service time (ms)", "Off day (frac <=)", "On day (frac <=)"},
	}
	chart := plot.Chart{
		Title:  chartTitle,
		XLabel: "service time (ms)",
		YLabel: "fraction of requests",
		YMin:   0, YMax: 1,
		Series: []plot.Series{{Name: "off day", Mark: 'o'}, {Name: "on day", Mark: '*'}},
	}
	off, on := detailDays(named(runs, "fujitsu"))
	if !lacksDay(rep, off, on) {
		svc := [2]*metrics.Histogram{off.Stats.All().Service, on.Stats.All().Service}
		for _, ms := range []float64{5, 10, 15, 20, 25, 30, 40, 50, 60, 80, 100} {
			rep.AddRow(f0(ms), fmt.Sprintf("%.3f", fracBelow(svc[0], ms)), fmt.Sprintf("%.3f", fracBelow(svc[1], ms)))
		}
		// The curve runs in 1 ms steps and stops at the first step that
		// covers every request.
		for i, h := range svc {
			s := &chart.Series[i]
			for ms := 1.0; ms <= 60 && h.Count() > 0; ms++ {
				f := fracBelow(h, ms)
				s.X = append(s.X, ms)
				s.Y = append(s.Y, f)
				if f == 1 {
					break
				}
			}
		}
	}
	rep.AddNote(note)
	return []Renderable{rep, chart}
}

// fracBelow returns the fraction of h's samples below ms, a whole number
// of milliseconds up to 128, or 0 for an empty h.
func fracBelow(h *metrics.Histogram, ms float64) float64 {
	if h.Count() == 0 {
		return 0
	}
	return float64(h.CountBelow(ms)) / float64(h.Count())
}

// Figure4 renders Figure 4: service-time distributions for the system
// file system on the Fujitsu disk. The paper's anchor: without
// rearrangement ~50% of requests complete within 20 ms; with it, ~85%.
func Figure4(runs []*Run) []Renderable {
	return cdfFigure("fig4", "Service time distribution, system fs, Fujitsu (on vs off day)",
		"Figure 4: service time CDF, system fs, Fujitsu",
		"paper anchor at 20 ms: off ~0.50, on ~0.85", runs)
}

// Figure6 renders Figure 6: service-time distributions for the users
// file system on the Fujitsu disk (a smaller on/off separation than
// Figure 4).
func Figure6(runs []*Run) []Renderable {
	return cdfFigure("fig6", "Service time distribution, users fs, Fujitsu (on vs off day)",
		"Figure 6: service time CDF, users fs, Fujitsu",
		"paper shape: rearrangement still helps, but less than for the system fs", runs)
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

// accessFigure renders a block-access distribution (Figures 5 and 7)
// from each disk's last off day, the one its run counted (the
// distribution itself is layout-independent): a table of the cumulative
// fraction of requests absorbed by the N hottest blocks, for all
// requests and for reads, then the Toshiba's curves.
func accessFigure(id, title, chartTitle, note string, runs []*Run) []Renderable {
	rep := &Report{
		ID:    id,
		Title: title,
		Columns: []string{"Hottest N blocks",
			"Tosh all", "Tosh reads", "Fuji all", "Fuji reads"},
	}
	tosh, fuji := named(runs, "toshiba"), named(runs, "fujitsu")
	for _, k := range []int{1, 10, 50, 100, 200, 500, 1000, 2000, 5000} {
		rep.AddRow(fmt.Sprint(k),
			fmt.Sprintf("%.3f", cumShare(tosh.AccessDist, k)),
			fmt.Sprintf("%.3f", cumShare(tosh.ReadDist, k)),
			fmt.Sprintf("%.3f", cumShare(fuji.AccessDist, k)),
			fmt.Sprintf("%.3f", cumShare(fuji.ReadDist, k)))
	}
	rep.AddRow("distinct blocks",
		fmt.Sprint(len(tosh.AccessDist)), fmt.Sprint(len(tosh.ReadDist)),
		fmt.Sprint(len(fuji.AccessDist)), fmt.Sprint(len(fuji.ReadDist)))
	rep.AddNote(note)

	curve := func(name string, mark byte, dist []hotlist.BlockCount) plot.Series {
		s := plot.Series{Name: name, Mark: mark}
		var total, cum int64
		for _, bc := range dist {
			total += bc.Count
		}
		if total == 0 {
			return s
		}
		for i, bc := range dist {
			cum += bc.Count
			// Sample ranks logarithmically to keep point counts sane.
			if i < 10 || (i+1)%max(1, len(dist)/128) == 0 {
				s.X = append(s.X, float64(i+1))
				s.Y = append(s.Y, float64(cum)/float64(total))
			}
		}
		return s
	}
	return []Renderable{rep, plot.Chart{
		Title:  chartTitle,
		XLabel: "hottest N blocks (log scale)",
		YLabel: "cumulative fraction of requests",
		LogX:   true,
		YMin:   0, YMax: 1,
		Series: []plot.Series{curve("all requests", '*', tosh.AccessDist), curve("reads", 'o', tosh.ReadDist)},
	}}
}

// Figure5 renders Figure 5: the block-access distribution of the system
// file system. The paper's anchors: the 100 hottest blocks absorb ~90%
// of requests and fewer than 2000 blocks absorb all of them.
func Figure5(runs []*Run) []Renderable {
	return accessFigure("fig5", "Distribution of block accesses, system file system",
		"Figure 5: block access distribution, system fs (Toshiba)",
		"paper anchors: top-100 ~0.90 of all requests; <2000 distinct blocks; reads slightly less skewed than all requests", runs)
}

// Figure7 renders Figure 7: the users file system's much flatter
// distribution.
func Figure7(runs []*Run) []Renderable {
	return accessFigure("fig7", "Distribution of block accesses, users file system",
		"Figure 7: block access distribution, users fs (Toshiba)",
		"paper shape: markedly less skewed than the system fs (Figure 5)", runs)
}

// Figure8 renders Figure 8: percentage reduction in daily mean seek
// distance and time as a function of the number of rearranged blocks
// (Toshiba, system fs), each run's point taken from its last on day and
// relative to FCFS arrival order with no rearrangement, as in the paper.
// The table gives every reduction; the chart the seek-time curves.
func Figure8(runs []*Run) []Renderable {
	rep := &Report{
		ID:    "fig8",
		Title: "Seek reduction vs number of rearranged blocks (Toshiba, system fs)",
		Columns: []string{"Blocks",
			"Dist red % (all)", "Time red % (all)",
			"Dist red % (reads)", "Time red % (reads)"},
	}
	all := plot.Series{Name: "all requests", Mark: '*'}
	reads := plot.Series{Name: "reads", Mark: 'o'}
	for _, run := range runs {
		_, on := detailDays(run)
		if lacksDay(rep, on) {
			break
		}
		a, r := on.Metrics(run.Curve, AllRequests), on.Metrics(run.Curve, ReadsOnly)
		n := run.Experiment.Rearrange.Blocks
		rep.AddRow(fmt.Sprint(n),
			f1(DistReductionPct(a)), f1(SeekReductionPct(a)),
			f1(DistReductionPct(r)), f1(SeekReductionPct(r)))
		all.X = append(all.X, float64(n))
		all.Y = append(all.Y, SeekReductionPct(a))
		reads.Y = append(reads.Y, SeekReductionPct(r))
	}
	reads.X = all.X
	rep.AddNote("paper shape: steep knee - the marginal benefit beyond ~100 blocks is small (the 100 hottest blocks absorb ~90 percent of requests)")
	return []Renderable{rep, plot.Chart{
		Title:  "Figure 8: seek time reduction vs rearranged blocks (Toshiba)",
		XLabel: "rearranged blocks",
		YLabel: "seek time reduction (%)",
		YMin:   0, YMax: 100,
		Series: []plot.Series{all, reads},
	}}
}
