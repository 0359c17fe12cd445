package experiment

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/hotlist"
	"repro/internal/runner"
	"repro/internal/volume"
	"repro/internal/workload"
)

// Shared compressed runs: the shape assertions all reuse these, so the
// expensive simulations execute once per test binary.
var (
	onceSys sync.Once
	resSys  []*Run
	errSys  error

	onceUsr sync.Once
	resUsr  []*Run
	errUsr  error
)

func testOpts() Options {
	return Options{Days: 4, WindowMS: 1 * workload.HourMS}
}

// rearranged gives the experiment the paper's default rearranger.
func rearranged(e Experiment) Experiment {
	e.Rearrange = &Rearrange{}
	return e
}

// gatherRuns simulates one need at testOpts and returns its runs.
func gatherRuns(n Need) ([]*Run, error) {
	rs, err := Gather(context.Background(), []Need{n}, testOpts(), runner.Config{})
	if err != nil {
		return nil, err
	}
	return rs.Runs(n), nil
}

func systemRuns(t *testing.T) []*Run {
	t.Helper()
	onceSys.Do(func() { resSys, errSys = gatherRuns(NeedSystem) })
	if errSys != nil {
		t.Fatal(errSys)
	}
	return resSys
}

func usersRuns(t *testing.T) []*Run {
	t.Helper()
	onceUsr.Do(func() { resUsr, errUsr = gatherRuns(NeedUsers) })
	if errUsr != nil {
		t.Fatal(errUsr)
	}
	return resUsr
}

func TestExecuteValidation(t *testing.T) {
	for what, e := range map[string]Experiment{
		"unknown disk":                 {Devices: Devices{Disk: "ibm"}},
		"unknown workload source":      {Workload: Workload{Source: "scratch"}},
		"unknown policy":               {Rearrange: &Rearrange{Policy: "random"}},
		"unknown scheduler":            {Devices: Devices{Sched: "elevator"}},
		"two disks and no layout":      {Devices: Devices{Disks: 2}},
		"two file systems on a volume": {Devices: Devices{Layout: volume.Stripe, Disks: 2}, Workload: Workload{Source: SystemAndUsers}},
		"a scheduler on a volume":      {Devices: Devices{Layout: volume.Mirror, Disks: 2, Sched: "scan"}},
		"a shared bounded hot list":    {Devices: Devices{Layout: volume.Mirror, Disks: 2}, Rearrange: &Rearrange{HotlistSize: 64}},
		"saturating users":             {Workload: Workload{Source: Users, Saturate: true}},
		"a front end for a trace":      {Server: &Frontend{}, Workload: Workload{Source: Trace}},
		"tenants with no population":   {Workload: Workload{Source: Tenants}},
	} {
		if _, err := Execute(context.Background(), e); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
}

func TestExecuteBasics(t *testing.T) {
	for _, run := range systemRuns(t) {
		if len(run.Days) != 4 {
			t.Fatalf("%s: %d days", run.Experiment.Devices.Disk, len(run.Days))
		}
		if run.WorkloadErrors != 0 {
			t.Errorf("%s: %d workload errors", run.Experiment.Devices.Disk, run.WorkloadErrors)
		}
		// Alternation: day 0 off, day 1 on, ...
		for i, d := range run.Days {
			if d.On != (i%2 == 1) {
				t.Errorf("%s day %d: on=%v", run.Experiment.Devices.Disk, i, d.On)
			}
			if d.Stats.All().Count() == 0 {
				t.Errorf("%s day %d: no requests measured", run.Experiment.Devices.Disk, i)
			}
		}
		// The access distributions are the last off day's: they count
		// every request that day measured, and its reads.
		off, _ := detailDays(run)
		if len(run.AccessDist) == 0 || len(run.ReadDist) == 0 {
			t.Errorf("%s: missing access distributions", run.Experiment.Devices.Disk)
		}
		total := func(dist []hotlist.BlockCount) (n int64) {
			for _, bc := range dist {
				n += bc.Count
			}
			return n
		}
		if got, want := total(run.AccessDist), off.Stats.All().Count(); got != want {
			t.Errorf("%s: access distribution counts %d requests, day %d measured %d",
				run.Experiment.Devices.Disk, got, off.Day, want)
		}
		if got, want := total(run.ReadDist), off.Stats.ReadSide.Count(); got != want {
			t.Errorf("%s: read distribution counts %d reads, day %d measured %d",
				run.Experiment.Devices.Disk, got, off.Day, want)
		}
		// Rearrangements installed blocks on each on-day.
		if len(run.Installed) == 0 {
			t.Fatalf("%s: no rearrangements recorded", run.Experiment.Devices.Disk)
		}
		for _, n := range run.Installed {
			if n < 500 {
				t.Errorf("%s: only %d blocks installed", run.Experiment.Devices.Disk, n)
			}
		}
	}
}

func TestSystemSeekReduction(t *testing.T) {
	// The headline result (Table 2): rearrangement cuts seek times
	// heavily on both disks — the paper measures ~90%; we require >=60%
	// under the compressed test window.
	for _, run := range systemRuns(t) {
		off := Summarize(run.OffDays(), run.Curve, AllRequests)
		on := Summarize(run.OnDays(), run.Curve, AllRequests)
		if on.Seek.Avg() >= 0.4*off.Seek.Avg() {
			t.Errorf("%s: seek %.2f -> %.2f ms, want >=60%% reduction",
				run.Experiment.Devices.Disk, off.Seek.Avg(), on.Seek.Avg())
		}
		if on.Service.Avg() >= off.Service.Avg() {
			t.Errorf("%s: service did not improve (%.2f -> %.2f ms)",
				run.Experiment.Devices.Disk, off.Service.Avg(), on.Service.Avg())
		}
		if on.Wait.Avg() >= off.Wait.Avg() {
			t.Errorf("%s: waiting did not improve (%.2f -> %.2f ms)",
				run.Experiment.Devices.Disk, off.Wait.Avg(), on.Wait.Avg())
		}
	}
}

func TestZeroSeekFractionJumps(t *testing.T) {
	// Table 3: rearrangement dramatically increases zero-length seeks.
	for _, run := range systemRuns(t) {
		off, on := detailDays(run)
		offM := off.Metrics(run.Curve, AllRequests)
		onM := on.Metrics(run.Curve, AllRequests)
		if onM.ZeroSeekPct < offM.ZeroSeekPct+20 {
			t.Errorf("%s: zero-seeks %.0f%% -> %.0f%%, want a large jump",
				run.Experiment.Devices.Disk, offM.ZeroSeekPct, onM.ZeroSeekPct)
		}
	}
}

func TestSCANBeatsFCFSOnOffDays(t *testing.T) {
	// Table 3's highlighted rows: even without rearrangement, SCAN's
	// scheduled distances are below arrival-order distances.
	tosh := named(systemRuns(t), "toshiba")
	off, _ := detailDays(tosh)
	m := off.Metrics(tosh.Curve, AllRequests)
	if m.Dist >= m.FCFSDist {
		t.Errorf("scheduled dist %.0f >= FCFS dist %.0f", m.Dist, m.FCFSDist)
	}
}

func TestSystemAccessDistributionShape(t *testing.T) {
	// Figure 5: heavy skew, bounded footprint.
	tosh := named(systemRuns(t), "toshiba")
	if got := cumShare(tosh.AccessDist, 100); got < 0.75 {
		t.Errorf("top-100 share = %.2f, want >= 0.75 (paper ~0.90)", got)
	}
	if len(tosh.AccessDist) > 3000 {
		t.Errorf("%d distinct blocks, want < 3000 (paper < 2000)", len(tosh.AccessDist))
	}
}

func TestUsersImproveLessThanSystem(t *testing.T) {
	// Section 5.3: the users file system benefits from rearrangement,
	// but much less than the system file system.
	sys := systemRuns(t)
	usr := usersRuns(t)
	reduction := func(run *Run) float64 {
		offSum := Summarize(run.OffDays(), run.Curve, AllRequests)
		onSum := Summarize(run.OnDays(), run.Curve, AllRequests)
		off, on := offSum.Seek.Avg(), onSum.Seek.Avg()
		if off == 0 {
			return 0
		}
		return 1 - on/off
	}
	sysRed := reduction(named(sys, "toshiba"))
	usrRed := reduction(named(usr, "toshiba"))
	if usrRed >= sysRed {
		t.Errorf("users reduction %.2f >= system reduction %.2f", usrRed, sysRed)
	}
}

func TestUsersFlatterDistribution(t *testing.T) {
	// Figure 7 vs Figure 5.
	sys := systemRuns(t)
	usr := usersRuns(t)
	sTosh, uTosh := named(sys, "toshiba"), named(usr, "toshiba")
	if s, u := cumShare(sTosh.AccessDist, 100), cumShare(uTosh.AccessDist, 100); u >= s {
		t.Errorf("users top-100 share %.2f not flatter than system %.2f", u, s)
	}
}

func TestServiceCDFOnDominatesOff(t *testing.T) {
	// Figure 4: the rearranged day's service-time CDF dominates at the
	// 20 ms anchor.
	off, on := detailDays(named(systemRuns(t), "fujitsu"))
	offAt20 := fracBelow(off.Stats.All().Service, 20)
	onAt20 := fracBelow(on.Stats.All().Service, 20)
	if onAt20 <= offAt20 {
		t.Errorf("CDF at 20ms: on %.2f <= off %.2f", onAt20, offAt20)
	}
	if onAt20 < 0.75 {
		t.Errorf("on-day CDF at 20ms = %.2f, paper ~0.85", onAt20)
	}
}

func TestReportsRender(t *testing.T) {
	sys := systemRuns(t)
	usr := usersRuns(t)
	reports := []*Report{
		Table1(), Table2(sys), Table3(sys), Table4(sys),
		Table5(usr), Table6(usr),
	}
	for _, fig := range [][]Renderable{Figure4(sys), Figure5(sys), Figure6(usr), Figure7(usr)} {
		reports = append(reports, fig[0].(*Report))
	}
	for _, rep := range reports {
		out := rep.Render()
		if out == "" {
			t.Errorf("%s: empty render", rep.ID)
		}
		if !strings.Contains(out, rep.ID) {
			t.Errorf("%s: render lacks id", rep.ID)
		}
		if len(rep.Rows) == 0 {
			t.Errorf("%s: no rows", rep.ID)
		}
	}
}

func TestTable1MatchesPaperSpecs(t *testing.T) {
	rep := Table1()
	if len(rep.Rows) != 2 {
		t.Fatalf("%d rows", len(rep.Rows))
	}
	if rep.Rows[0][2] != "815" || rep.Rows[1][2] != "1658" {
		t.Errorf("cylinder counts = %s, %s", rep.Rows[0][2], rep.Rows[1][2])
	}
}

func TestSeekReductionPct(t *testing.T) {
	m := Metrics{FCFSSeekMS: 20, SeekMS: 2}
	if got := SeekReductionPct(m); got != 90 {
		t.Errorf("SeekReductionPct = %v", got)
	}
	if got := SeekReductionPct(Metrics{}); got != 0 {
		t.Errorf("zero FCFS: %v", got)
	}
	m = Metrics{FCFSDist: 200, Dist: 50}
	if got := DistReductionPct(m); got != 75 {
		t.Errorf("DistReductionPct = %v", got)
	}
}

func TestCumShare(t *testing.T) {
	tosh := named(systemRuns(t), "toshiba")
	full := cumShare(tosh.AccessDist, len(tosh.AccessDist))
	if full < 0.999 {
		t.Errorf("full share = %v", full)
	}
	if cumShare(nil, 10) != 0 {
		t.Error("empty distribution share != 0")
	}
}

func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("repeat run in -short mode")
	}
	run1, err := Execute(context.Background(), rearranged(Experiment{Days: 2, WindowMS: 30 * 60 * 1000}))
	if err != nil {
		t.Fatal(err)
	}
	run2, err := Execute(context.Background(), rearranged(Experiment{Days: 2, WindowMS: 30 * 60 * 1000}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range run1.Days {
		a := run1.Days[i].Metrics(run1.Curve, AllRequests)
		b := run2.Days[i].Metrics(run2.Curve, AllRequests)
		if a != b {
			t.Fatalf("day %d metrics differ: %+v vs %+v", i, a, b)
		}
	}
}

func TestSerialPolicyWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("extra runs in -short mode")
	}
	// Table 7's ordering on a single disk: serial placement leaves far
	// more seek time on the table than organ-pipe.
	seekOf := func(policy string) float64 {
		run, err := Execute(context.Background(), Experiment{
			Rearrange: &Rearrange{Policy: policy}, Days: 2, WindowMS: 45 * 60 * 1000,
			OnPattern: func(day int) bool { return day > 0 },
		})
		if err != nil {
			t.Fatal(err)
		}
		_, on := detailDays(run)
		return on.Metrics(run.Curve, AllRequests).SeekMS
	}
	organ := seekOf("organ-pipe")
	serial := seekOf("serial")
	if serial <= organ*1.5 {
		t.Errorf("serial seek %.2f ms not clearly worse than organ-pipe %.2f ms", serial, organ)
	}
}

func TestSharedDiskExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("extra runs in -short mode")
	}
	run, err := Execute(context.Background(), sharedConfigs(Options{Days: 4, WindowMS: 45 * 60 * 1000})[0])
	if err != nil {
		t.Fatal(err)
	}
	if run.WorkloadErrors != 0 {
		t.Errorf("%d workload errors", run.WorkloadErrors)
	}
	if len(run.Days) != 4 {
		t.Fatalf("%d days", len(run.Days))
	}
	off := Summarize(run.OffDays(), run.Curve, AllRequests)
	on := Summarize(run.OnDays(), run.Curve, AllRequests)
	if on.Seek.Avg() >= off.Seek.Avg() {
		t.Errorf("shared disk: seek %.2f -> %.2f ms, no improvement", off.Seek.Avg(), on.Seek.Avg())
	}
	if len(run.Installed) == 0 || run.Installed[0] < 500 {
		t.Errorf("installed = %v", run.Installed)
	}
	if rep := SharedReport([]*Run{run}); len(rep.Rows) != 3 {
		t.Errorf("report rows = %d", len(rep.Rows))
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	for _, v := range []float64{3, 1, 2} {
		s.Add(v)
	}
	if s.Min() != 1 || s.Max() != 3 || s.Avg() != 2 || s.String() != "1.00/2.00/3.00" {
		t.Errorf("summary = %v/%v/%v (%q)", s.Min(), s.Avg(), s.Max(), s.String())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Min() != 0 || s.Max() != 0 || s.Avg() != 0 || s.String() != "0.00/0.00/0.00" {
		t.Errorf("empty summary = %q, want zeros", s.String())
	}
}

// TestEveryRunRecordsItsWindows holds the Run contract on every kind of
// run: Days has one entry per measured window — each day of a
// file-system workload, the tenants' one window, one replay pass or two
// when the run rearranges — on a single disk and on a volume alike, and
// Counters sums every member's lifetime counts. It runs the first row of
// every need, and the first rearranging row of a need whose first does
// not rearrange, at a three-minute window.
func TestEveryRunRecordsItsWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("one run per need in -short mode")
	}
	o := Options{Days: 2, WindowMS: 0.05 * workload.HourMS}
	for n := Need(0); n < needCount; n++ {
		if n == NeedCrash {
			continue // the crashcheck harness, not a stack
		}
		rows := needTable[n].rows(o)
		picked := rows[:1]
		for _, e := range rows {
			if rows[0].Rearrange == nil && e.Rearrange != nil {
				picked = append(picked, e)
				break
			}
		}
		for _, e := range picked {
			run, err := Execute(context.Background(), e)
			if err != nil {
				t.Fatalf("%s/%s: %v", n, e.Name, err)
			}
			e = run.Experiment
			var want []DayResult
			switch e.Workload.Source {
			case Tenants:
				want = []DayResult{{}}
			case Trace:
				want = []DayResult{{}}
				if e.Rearrange != nil {
					want = append(want, DayResult{Day: 1, On: true})
				}
			default:
				for day := 0; day < e.Days; day++ {
					want = append(want, DayResult{Day: day, On: isOnDay(e, day)})
				}
			}
			if len(run.Days) != len(want) {
				t.Errorf("%s/%s: %d windows, want %d", n, e.Name, len(run.Days), len(want))
				continue
			}
			var measured int64
			for i, d := range run.Days {
				if d.Day != want[i].Day || d.On != want[i].On || d.Stats == nil || d.Stats.All().Count() == 0 {
					t.Errorf("%s/%s: window %d is day %d, on %v, stats %v; want day %d, on %v, with requests",
						n, e.Name, i, d.Day, d.On, d.Stats, want[i].Day, want[i].On)
					continue
				}
				measured += d.Stats.All().Count()
			}
			if run.Counters.Requests < measured {
				t.Errorf("%s/%s: the drivers' lifetime counters hold %d requests, fewer than the %d measured",
					n, e.Name, run.Counters.Requests, measured)
			}
		}
	}
}
