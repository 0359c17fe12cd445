package experiment

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/tracein"
	"repro/internal/volume"
	"repro/internal/workload"
)

// Options scales a reproduction run. The zero value reproduces the
// paper's configuration (full 7am–10pm days, the paper's day counts);
// tests and quick runs compress the window.
type Options struct {
	// Days overrides the number of days of each underlying run.
	Days int
	// WindowMS compresses the measured window per day.
	WindowMS float64
	// Seed changes the workload seed.
	Seed uint64
	// Telemetry, when non-nil, gives every simulation job a private
	// telemetry collector: span capture and/or periodic sampling per
	// the options. The collectors land in ResultSet.Collectors in job
	// order, so concatenated output is byte-identical for any worker
	// count. nil (the default) is the zero-cost path.
	Telemetry *telemetry.Options
	// Fault, when non-nil and active, injects device faults per the
	// plan into every simulation unit (abrsim -fault-plan). The fault
	// experiments ("faults", "crash") ignore it: they define their own
	// plans. nil (the default) changes nothing.
	Fault *fault.Plan
	// Tenants above 0 collapses the tenant-scale population sweep to
	// this single tenant count and resizes the scenario rows (abrsim
	// -tenants). Other experiments ignore it.
	Tenants int
	// NetLatencyMS and NetBandwidthMBps override the tenant-scale
	// simulated link (abrsim -net-lat, -net-bw); zeros keep the server
	// defaults (0.2 ms, 100 MB/s).
	NetLatencyMS     float64
	NetBandwidthMBps float64
	// QoS forces tenant-scale admission control "on" or "off" across
	// the matrix (abrsim -qos); "" keeps each row's own setting.
	QoS string
	// RAIDLayout collapses the raid-rebuild matrix to one custom row of
	// the given layout ("raid5" or "raid6"; abrsim -layout); "" keeps
	// the full matrix. RAIDSpare, RebuildRate, and ScrubIntervalMS
	// configure that custom row (abrsim -spare, -rebuild-rate,
	// -scrub-interval); they are ignored when RAIDLayout is unset, so
	// zero values reproduce the committed matrix exactly.
	RAIDLayout      string
	RAIDSpare       int
	RebuildRate     float64
	ScrubIntervalMS float64
	// TraceIn replays this trace file (any tracein format,
	// auto-detected) instead of the trace-replay matrix's synthesized
	// workload, collapsing the matrix to one custom off/on pair (abrsim
	// -trace-in). ReplayMode ("open" or "closed"; abrsim -replay-mode),
	// TraceScale (copies multiplexed with matching time compression;
	// abrsim -trace-scale), and TraceShift (per-copy address shift in
	// blocks, 0 = spread evenly; abrsim -trace-shift) configure that
	// pair; with all four unset, the committed matrix runs unchanged.
	TraceIn    string
	ReplayMode string
	TraceScale int
	TraceShift int64
}

func (o Options) days(def int) int {
	if o.Days > 0 {
		return o.Days
	}
	return def
}

func (o Options) seed() uint64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return defaultSeed
}

// paper is one of Section 5's single-disk experiments scaled by the
// options: the day count unless overridden, the window, the seed and the
// fault plan. The scheduler is the driver's default, SCAN.
func (o Options) paper(name, diskName string, src Source, days int) Experiment {
	return Experiment{
		Name:      name,
		Devices:   Devices{Disk: diskName, Faults: []*fault.Plan{o.Fault}},
		Workload:  Workload{Source: src},
		Rearrange: &Rearrange{},
		Days:      o.days(days), WindowMS: o.WindowMS, Seed: o.Seed,
	}
}

// OptionError reports an Options field whose value no experiment
// accepts.
type OptionError struct {
	Field string // the Options field, e.g. "QoS"
	Value string
	Want  string // the accepted values, in words
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("experiment: invalid Options.%s %q (want %s)", e.Field, e.Value, e.Want)
}

// Validate checks the fields that name one of a fixed set of choices;
// Gather runs it before anything else, so a misspelt choice fails the
// run instead of silently selecting a default. The error is an
// *OptionError.
func (o Options) Validate() error {
	switch {
	case o.QoS != "" && o.QoS != "on" && o.QoS != "off":
		return &OptionError{"QoS", o.QoS, "on or off"}
	case o.RAIDLayout != "" && o.RAIDLayout != string(volume.RAID5) && o.RAIDLayout != string(volume.RAID6):
		return &OptionError{"RAIDLayout", o.RAIDLayout, "raid5 or raid6"}
	}
	if _, err := tracein.ParseMode(o.ReplayMode); err != nil {
		return &OptionError{"ReplayMode", o.ReplayMode, "open or closed"}
	}
	return nil
}

// paperOnOff holds one paper row of an on/off summary table:
// {seek, service, wait} × {min, avg, max}.
type paperOnOff struct {
	seek, service, wait [3]float64
}

// Paper values for Tables 2, 4, 5 and 6, keyed by "<disk>/<on|off>".
var (
	paperTable2 = map[string]paperOnOff{
		"toshiba/off": {[3]float64{18.70, 19.46, 21.51}, [3]float64{38.41, 39.78, 41.71}, [3]float64{65.39, 82.73, 94.52}},
		"toshiba/on":  {[3]float64{0.98, 1.17, 1.55}, [3]float64{22.61, 22.88, 23.34}, [3]float64{40.39, 46.43, 51.13}},
		"fujitsu/off": {[3]float64{7.80, 8.14, 8.67}, [3]float64{21.26, 21.60, 22.04}, [3]float64{61.35, 66.57, 72.69}},
		"fujitsu/on":  {[3]float64{0.70, 0.91, 1.16}, [3]float64{13.83, 14.18, 14.41}, [3]float64{35.65, 45.31, 52.52}},
	}
	paperTable4 = map[string]paperOnOff{
		"toshiba/off": {[3]float64{12.46, 14.31, 16.60}, [3]float64{30.50, 32.80, 35.32}, [3]float64{4.48, 5.80, 6.86}},
		"toshiba/on":  {[3]float64{3.54, 3.89, 4.49}, [3]float64{22.57, 23.59, 24.03}, [3]float64{4.46, 4.97, 5.47}},
		"fujitsu/off": {[3]float64{7.52, 7.79, 8.02}, [3]float64{19.69, 20.29, 21.48}, [3]float64{3.21, 4.72, 7.59}},
		"fujitsu/on":  {[3]float64{1.32, 1.58, 1.89}, [3]float64{12.34, 12.87, 13.41}, [3]float64{2.54, 2.98, 3.32}},
	}
	paperTable5 = map[string]paperOnOff{
		"toshiba/off": {[3]float64{11.06, 13.10, 15.45}, [3]float64{28.83, 31.14, 34.06}, [3]float64{8.32, 16.86, 31.93}},
		"toshiba/on":  {[3]float64{8.10, 8.90, 10.78}, [3]float64{26.08, 27.32, 29.54}, [3]float64{4.74, 10.18, 18.63}},
		"fujitsu/off": {[3]float64{3.27, 4.27, 4.79}, [3]float64{16.23, 17.00, 17.37}, [3]float64{4.33, 15.19, 48.96}},
		"fujitsu/on":  {[3]float64{1.76, 2.73, 3.92}, [3]float64{14.04, 15.12, 16.13}, [3]float64{3.53, 5.83, 8.75}},
	}
	paperTable6 = map[string]paperOnOff{
		"toshiba/off": {[3]float64{11.97, 15.38, 17.73}, [3]float64{30.03, 32.90, 35.29}, [3]float64{1.18, 5.16, 16.87}},
		"toshiba/on":  {[3]float64{6.67, 8.40, 9.64}, [3]float64{25.35, 26.48, 27.79}, [3]float64{0.73, 2.48, 4.19}},
		"fujitsu/off": {[3]float64{4.95, 5.98, 7.13}, [3]float64{16.62, 17.59, 18.00}, [3]float64{1.30, 3.01, 7.21}},
		"fujitsu/on":  {[3]float64{2.05, 2.44, 2.74}, [3]float64{13.12, 13.84, 14.51}, [3]float64{0.99, 2.04, 4.05}},
	}
)

// onOffTable renders an on/off summary table in the paper's layout,
// interleaving the measured rows, one pair per disk, with the paper's.
func onOffTable(id, title string, runs []*Run, side Side, paper map[string]paperOnOff) *Report {
	rep := &Report{
		ID:      id,
		Title:   title,
		Columns: []string{"Disk", "On/Off", "Source", "Seek min/avg/max", "Service min/avg/max", "Waiting min/avg/max"},
	}
	for _, run := range runs {
		name := run.Experiment.Name
		for _, on := range []bool{false, true} {
			days := run.OffDays()
			label := "Off"
			if on {
				days = run.OnDays()
				label = "On"
			}
			sum := Summarize(days, run.Curve, side)
			rep.AddRow(name, label, "measured", sum.Seek.String(), sum.Service.String(), sum.Wait.String())
			if p, ok := paper[name+"/"+key(on)]; ok {
				rep.AddRow(name, label, "paper", triple(p.seek), triple(p.service), triple(p.wait))
			}
		}
	}
	rep.AddNote("seek times computed from measured seek-distance distributions and the Table 1 curves, as in the paper")
	return rep
}

func key(on bool) string {
	if on {
		return "on"
	}
	return "off"
}

func triple(v [3]float64) string { return fmt.Sprintf("%.2f/%.2f/%.2f", v[0], v[1], v[2]) }

// Table2 renders Table 2: on/off daily means for the system file system.
func Table2(runs []*Run) *Report {
	return onOffTable("table2", "Summary of Results of On/Off Experiments (system file system)",
		runs, AllRequests, paperTable2)
}

// Table4 renders Table 4: the same experiment, read requests only.
func Table4(runs []*Run) *Report {
	return onOffTable("table4", "Summary of Results of On/Off Experiments (system fs, read requests only)",
		runs, ReadsOnly, paperTable4)
}

// Table5 renders Table 5: on/off daily means for the users file system.
func Table5(runs []*Run) *Report {
	return onOffTable("table5", "Summary of Results of On/Off Experiments (users file system)",
		runs, AllRequests, paperTable5)
}

// Table6 renders Table 6: the users experiment, read requests only.
func Table6(runs []*Run) *Report {
	return onOffTable("table6", "Summary of Results of On/Off Experiments (users fs, read requests only)",
		runs, ReadsOnly, paperTable6)
}

// named returns the run of the row with the given name.
func named(runs []*Run, name string) *Run {
	for _, run := range runs {
		if run.Experiment.Name == name {
			return run
		}
	}
	panic("experiment: no run named " + name)
}

// detailDays picks the representative consecutive off/on pair used by
// the day-detail reports: the last off day and the last on day.
func detailDays(run *Run) (off, on DayResult) {
	offs, ons := run.OffDays(), run.OnDays()
	if len(offs) > 0 {
		off = offs[len(offs)-1]
	}
	if len(ons) > 0 {
		on = ons[len(ons)-1]
	}
	return off, on
}

// lacksDay reports whether any of the days was not measured — a one-day
// run has no on day — and if so says so in a note on rep.
func lacksDay(rep *Report, days ...DayResult) bool {
	for _, d := range days {
		if d.Stats == nil {
			rep.AddNote("insufficient days: the run measured no on day")
			return true
		}
	}
	return false
}

// detailRows are the rows of the day-detail tables (3, 8 and 9), in the
// order the paper's value arrays list them.
var detailRows = []struct {
	name string
	get  func(Metrics) float64
	fmt  func(float64) string
}{
	{"FCFS Mean Seek Dist (cyln)", func(m Metrics) float64 { return m.FCFSDist }, f0},
	{"Mean Seek Distance (cyln)", func(m Metrics) float64 { return m.Dist }, f0},
	{"Zero-length Seeks (%)", func(m Metrics) float64 { return m.ZeroSeekPct }, f0},
	{"FCFS Mean Seek Time (ms)", func(m Metrics) float64 { return m.FCFSSeekMS }, f2},
	{"Mean Seek Time (ms)", func(m Metrics) float64 { return m.SeekMS }, f2},
	{"Mean Service Time (ms)", func(m Metrics) float64 { return m.ServiceMS }, f2},
	{"Mean Waiting Time (ms)", func(m Metrics) float64 { return m.WaitMS }, f2},
}

// paperTable3 holds Table 3's columns for each disk/day:
// FCFS dist, dist, zero%, FCFS seek, seek, service, waiting.
var paperTable3 = map[string][7]float64{
	"toshiba/off": {220, 173, 23, 20.92, 18.21, 38.41, 87.30},
	"toshiba/on":  {225, 8, 88, 21.46, 1.55, 22.95, 50.03},
	"fujitsu/off": {435, 315, 27, 10.31, 8.01, 21.15, 69.98},
	"fujitsu/on":  {413, 27, 76, 9.73, 1.16, 14.08, 35.65},
}

// addDetailRows fills a day-detail table (3, 8 or 9): one row per entry
// of detailRows, each column's measured value followed by the paper's.
func addDetailRows(rep *Report, ms []Metrics, papers [][7]float64) {
	for ri, row := range detailRows {
		cells := []string{row.name}
		for i, m := range ms {
			cells = append(cells, row.fmt(row.get(m)), row.fmt(papers[i][ri]))
		}
		rep.AddRow(cells...)
	}
}

// Table3 renders Table 3: detailed results from an off day and an on day
// of the system file system experiment on each disk.
func Table3(runs []*Run) *Report {
	rep := &Report{
		ID:    "table3",
		Title: "Experimental results for system file system (off day vs on day)",
		Columns: []string{"Metric",
			"Tosh off", "Tosh off (paper)", "Tosh on", "Tosh on (paper)",
			"Fuji off", "Fuji off (paper)", "Fuji on", "Fuji on (paper)"},
	}
	var ms []Metrics
	var papers [][7]float64
	for _, d := range []string{"toshiba", "fujitsu"} {
		run := named(runs, d)
		off, on := detailDays(run)
		if lacksDay(rep, off, on) {
			return rep
		}
		ms = append(ms, off.Metrics(run.Curve, AllRequests), on.Metrics(run.Curve, AllRequests))
		papers = append(papers, paperTable3[d+"/off"], paperTable3[d+"/on"])
	}
	addDetailRows(rep, ms, papers)
	return rep
}

// PolicyNames lists the three placement policies in the paper's order.
var PolicyNames = []string{"organ-pipe", "interleaved", "serial"}

// paperTable7 holds Table 7's percentages: [disk][policy]{all, reads}.
var paperTable7 = map[string]map[string][2]float64{
	"toshiba": {"organ-pipe": {95, 76}, "interleaved": {87, 62}, "serial": {58, 40}},
	"fujitsu": {"organ-pipe": {90, 78}, "interleaved": {88, 77}, "serial": {76, 65}},
}

// Table7 renders Table 7: percentage reduction in daily mean seek time
// versus FCFS arrival order with no rearrangement, per placement policy.
func Table7(runs []*Run) *Report {
	rep := &Report{
		ID:    "table7",
		Title: "Summary of results of placement policy experiments (system file system)",
		Columns: []string{"Disk", "Requests", "Source",
			"Organ-Pipe", "Interleaved", "Serial"},
	}
	for _, d := range []string{"toshiba", "fujitsu"} {
		for _, side := range []struct {
			name string
			sel  Side
			idx  int
		}{{"all", AllRequests, 0}, {"reads", ReadsOnly, 1}} {
			cells := []string{d, side.name, "measured"}
			paperCells := []string{d, side.name, "paper"}
			for _, p := range PolicyNames {
				run := named(runs, d+"/"+p)
				var sum float64
				ons := run.OnDays()
				for _, day := range ons {
					sum += SeekReductionPct(day.Metrics(run.Curve, side.sel))
				}
				if len(ons) > 0 {
					sum /= float64(len(ons))
				}
				cells = append(cells, f0(sum))
				paperCells = append(paperCells, f0(paperTable7[d][p][side.idx]))
			}
			rep.AddRow(cells...)
			rep.AddRow(paperCells...)
		}
	}
	return rep
}

// paperTable89 holds Tables 8 and 9: [disk][policy][all|reads] rows of
// {FCFS dist, dist, zero%, FCFS seek, seek, service, wait}.
var paperTable89 = map[string]map[string]map[string][7]float64{
	"toshiba": {
		"organ-pipe":  {"all": {225, 8, 88, 21.46, 1.55, 22.95, 50.03}, "reads": {165, 23, 67, 16.14, 4.49, 24.18, 5.47}},
		"interleaved": {"all": {208, 15, 83, 20.02, 2.50, 23.71, 46.85}, "reads": {144, 24, 61, 14.39, 5.86, 24.31, 5.14}},
		"serial":      {"all": {208, 22, 26, 20.02, 8.50, 28.53, 61.32}, "reads": {142, 39, 39, 14.23, 8.57, 27.80, 6.32}},
	},
	"fujitsu": {
		"organ-pipe":  {"all": {408, 22, 74, 9.62, 1.10, 13.83, 44.52}, "reads": {311, 35, 59, 7.63, 1.74, 13.03, 3.23}},
		"interleaved": {"all": {400, 26, 77, 9.79, 1.12, 14.35, 51.33}, "reads": {305, 44, 62, 7.78, 1.92, 13.74, 3.25}},
		"serial":      {"all": {440, 26, 35, 10.36, 2.49, 15.47, 46.16}, "reads": {321, 41, 35, 8.02, 2.82, 14.51, 2.73}},
	},
}

// policyDetailTable renders Table 8 (Toshiba) or Table 9 (Fujitsu) from
// each policy's last on day.
func policyDetailTable(id, title, diskName string, runs []*Run) *Report {
	rep := &Report{
		ID:      id,
		Title:   title,
		Columns: []string{"Metric"},
	}
	var ms []Metrics
	var papers [][7]float64
	for _, p := range PolicyNames {
		run := named(runs, diskName+"/"+p)
		_, on := detailDays(run)
		if lacksDay(rep, on) {
			return rep
		}
		for _, side := range []struct {
			name string
			sel  Side
		}{{"all", AllRequests}, {"reads", ReadsOnly}} {
			rep.Columns = append(rep.Columns, p+"/"+side.name, "(paper)")
			ms = append(ms, on.Metrics(run.Curve, side.sel))
			papers = append(papers, paperTable89[diskName][p][side.name])
		}
	}
	addDetailRows(rep, ms, papers)
	return rep
}

// Table8 renders Table 8: placement policies on the Toshiba disk.
func Table8(runs []*Run) *Report {
	return policyDetailTable("table8", "Experiments with placement policies on Toshiba disk", "toshiba", runs)
}

// Table9 renders Table 9: placement policies on the Fujitsu disk.
func Table9(runs []*Run) *Report {
	return policyDetailTable("table9", "Experiments with placement policies on Fuji disk", "fujitsu", runs)
}

// paperTable10 holds Table 10: mean rotational latency + transfer time
// (ms) for reads on the Toshiba disk.
var paperTable10 = map[string]float64{
	"none":        18.58,
	"organ-pipe":  19.42,
	"serial":      19.29,
	"interleaved": 18.47,
}

// Table10 renders Table 10: effects of placement policies on rotational
// delays (Toshiba, read requests). "none" uses the warm-up (off) day of
// the organ-pipe run.
func Table10(runs []*Run) *Report {
	rep := &Report{
		ID:      "table10",
		Title:   "Effects of placement policies on rotational delays (Toshiba, reads)",
		Columns: []string{"Placement", "Rot+Transfer (ms)", "Paper (ms)"},
	}
	orgRun := named(runs, "toshiba/organ-pipe")
	off, _ := detailDays(orgRun)
	rep.AddRow("Without Rearrangement",
		f2(off.Metrics(orgRun.Curve, ReadsOnly).RotTransferMS), f2(paperTable10["none"]))
	for _, p := range []string{"organ-pipe", "serial", "interleaved"} {
		run := named(runs, "toshiba/"+p)
		_, on := detailDays(run)
		if lacksDay(rep, on) {
			return rep
		}
		rep.AddRow(p, f2(on.Metrics(run.Curve, ReadsOnly).RotTransferMS), f2(paperTable10[p]))
	}
	rep.AddNote("measured directly from the disk model's rotational and transfer components; the paper infers the same quantity as service - seek time")
	return rep
}

// Table1 renders Table 1: the disk specifications and seek curves —
// model validation rather than an experiment.
func Table1() *Report {
	rep := &Report{
		ID:      "table1",
		Title:   "Specifications of the disks",
		Columns: []string{"Disk", "Capacity (MB)", "Cylinders", "Tracks/Cyl", "Sectors/Track", "RPM", "seek(1) ms", "seek(max) ms"},
	}
	for _, m := range []disk.Model{disk.Toshiba(), disk.Fujitsu()} {
		rep.AddRow(m.Name,
			f0(float64(m.Geom.Capacity()>>20)),
			fmt.Sprint(m.Geom.Cylinders), fmt.Sprint(m.Geom.TracksPerCyl),
			fmt.Sprint(m.Geom.SectorsPerTrack), fmt.Sprint(m.Geom.RPM),
			f2(m.Seek.SeekMS(1)), f2(m.Seek.SeekMS(m.Geom.Cylinders-1)))
	}
	rep.AddNote("paper: Toshiba 135 MB / 815 cyl; Fujitsu 1 GB / 1658 cyl; both 3600 RPM")
	return rep
}

// FullWindowMS is the paper's measured window length (7am–10pm).
const FullWindowMS = workload.DayEndMS - workload.DayStartMS
