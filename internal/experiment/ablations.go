package experiment

import "fmt"

// ablations is the matrix behind the paper's three design claims: SCAN
// works well with rearrangement (§5.2), block granularity beats
// cylinder granularity (§1.1), and a bounded hot list is enough. The
// baseline is the paper's driver — SCAN, an exact counter, the reserved
// region at the centre, a two-minute poll, organ-pipe placement — and
// every other row changes one of those.
var ablations = []struct {
	name string
	vary func(*Experiment)
}{
	{"baseline", func(*Experiment) {}},
	{"fcfs", func(e *Experiment) { e.Devices.Sched = "fcfs" }},
	{"cscan", func(e *Experiment) { e.Devices.Sched = "cscan" }},
	{"sstf", func(e *Experiment) { e.Devices.Sched = "sstf" }},
	{"hotlist-64", func(e *Experiment) { e.Rearrange.HotlistSize = 64 }},
	{"hotlist-256", func(e *Experiment) { e.Rearrange.HotlistSize = 256 }},
	{"hotlist-1024", func(e *Experiment) { e.Rearrange.HotlistSize = 1024 }},
	{"reserved-edge", func(e *Experiment) { e.Devices.ReservedFirstCyl = 4 }},
	{"poll-30s", func(e *Experiment) { e.Rearrange.PollPeriodMS = 30_000 }},
	{"poll-10m", func(e *Experiment) { e.Rearrange.PollPeriodMS = 600_000 }},
	{"cylinder", func(e *Experiment) { e.Rearrange.Policy = "cylinder" }},
}

// ablationConfigs is the ablation matrix on the system file system on
// the Toshiba, two days by default: day 0 learns, day 1 is the on-day.
func ablationConfigs(o Options) []Experiment {
	rows := make([]Experiment, len(ablations))
	for i, a := range ablations {
		rows[i] = o.paper(a.name, "toshiba", System, 2)
		a.vary(&rows[i])
	}
	return rows
}

// AblationsReport renders each ablation row's last on-day seek, wait and
// zero-length-seek share beside its last off-day seek.
func AblationsReport(runs []*Run) *Report {
	rep := &Report{
		ID:      "ablations",
		Title:   "Ablations of the rearranged system (Toshiba, system fs)",
		Columns: []string{"Row", "On seek (ms)", "On wait (ms)", "On zero seeks (%)", "Off seek (ms)"},
	}
	f3 := func(v float64) string { return fmt.Sprintf("%.3f", v) }
	for _, run := range runs {
		off, on := detailDays(run)
		if lacksDay(rep, off, on) {
			return rep
		}
		m := on.Metrics(run.Curve, AllRequests)
		rep.AddRow(run.Experiment.Name, f3(m.SeekMS), f2(m.WaitMS), f1(m.ZeroSeekPct),
			f3(off.Metrics(run.Curve, AllRequests).SeekMS))
	}
	rep.AddNote("baseline: SCAN, exact counter, reserved region at the centre, 2-minute poll, organ-pipe; each other row changes one of these")
	return rep
}
