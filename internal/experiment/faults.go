package experiment

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/fault/crashcheck"
)

// This file holds the fault-tolerance extension experiments — runs
// the paper never measures, but which the Section 4.1.2 crash argument
// and any real deployment of the driver imply:
//
//	"faults" — the system-fs workload re-run under increasing transient
//	device fault rates, measuring how retries and backoff degrade the
//	mean response time;
//	"crash"  — the crashcheck harness's scenario battery: scripted
//	rearrangement workloads cut down by a power loss at chosen points,
//	then recovered and checked against the crash invariants.

// DefaultFaultRates is the per-operation transient fault probability
// sweep of the "faults" experiment. Zero is the clean baseline.
var DefaultFaultRates = []float64{0, 1e-4, 1e-3, 5e-3, 2e-2}

// faultConfigs is the fault-rate sweep, one row per rate. All rows share
// one workload seed and one fault seed, so the sweep isolates the rate.
func faultConfigs(o Options) []Experiment {
	var rows []Experiment
	for _, rate := range DefaultFaultRates {
		e := o.paper(fmt.Sprintf("%g", rate), "toshiba", System, 2)
		e.OnPattern = everyDayAfterWarmup
		e.Devices.Faults = []*fault.Plan{{Seed: o.seed(), TransientRead: rate, TransientWrite: rate}}
		rows = append(rows, e)
	}
	return rows
}

// FaultsReport renders the fault-rate sweep with the clean baseline's
// response times alongside for the degradation comparison. Service time
// includes retry backoff.
func FaultsReport(runs []*Run) *Report {
	rep := &Report{
		ID:      "faults",
		Title:   "Extension: response time vs transient device fault rate (Toshiba, system FS)",
		Columns: []string{"Fault rate", "Faults", "Retries", "Unrecovered", "Service (ms)", "Wait (ms)", "FS errors"},
	}
	var base, worst, worstRate float64
	for _, run := range runs {
		rate := run.Experiment.Devices.Faults[0].TransientRead
		sum := Summarize(run.Days, run.Curve, AllRequests)
		c := run.Counters
		rep.AddRow(fmt.Sprintf("%g", rate),
			fmt.Sprintf("%d", c.Faults), fmt.Sprintf("%d", c.Retries),
			fmt.Sprintf("%d", c.Unrecovered),
			f2(sum.Service.Avg()), f2(sum.Wait.Avg()), fmt.Sprintf("%d", run.WorkloadErrors))
		if rate == 0 {
			base = sum.Service.Avg()
		}
		worst, worstRate = sum.Service.Avg(), rate
	}
	if base > 0 {
		rep.AddNote("service-time degradation at rate %g: %+.1f%% vs the clean baseline (retry backoff counts toward service time)",
			worstRate, (worst/base-1)*100)
	}
	rep.AddNote("transient faults are retried with exponential sim-time backoff (up to 3 attempts); the paper does not model faults — this validates the fault-tolerance extension")
	return rep
}

// CrashPoint is the outcome of one crash-recovery scenario.
type CrashPoint struct {
	// Scenario names the crash point.
	Scenario string
	// Plan is the fault plan's string form, reusable with -fault-plan.
	Plan string
	// Result is what the harness counted: the device operations at the
	// power loss, the committed rearrangements and acknowledged writes,
	// the recovered block-table size.
	crashcheck.Result
	// Err is empty when every crash invariant held after recovery.
	Err string
}

// crashScenario is one row of the crash battery.
type crashScenario struct {
	name string
	plan fault.Plan
}

// crashScenarios is the scenario battery: a crash during each phase of
// the DKIOCBCOPY protocol, plus arbitrary-point crashes. Seed 350 is a
// searched-for seed whose table-write tear lands inside the encoded
// bytes, forcing recovery onto the other slot's previous generation.
var crashScenarios = []crashScenario{
	{"mid block-copy", fault.Plan{Seed: 11, CrashPhase: "bcopy-copy", CrashPhaseSkip: 2}},
	{"mid table-write (torn slot)", fault.Plan{Seed: 350, CrashPhase: "table-write", CrashPhaseSkip: 2}},
	{"after 29 device ops", fault.Plan{Seed: 29, CrashAfterOps: 29}},
	{"after 57 device ops", fault.Plan{Seed: 57, CrashAfterOps: 57}},
}

// crashUnits wraps each crash scenario as one independent job. An
// invariant violation is reported in the point, not as a job error, so
// one bad scenario does not mask the others' results.
func crashUnits() []unit {
	return matrixUnits(crashScenarios,
		func(sc crashScenario) (string, float64) { return "crash/" + sc.name, 1 },
		func(ctx context.Context, sc crashScenario) (CrashPoint, error) {
			if err := ctx.Err(); err != nil {
				return CrashPoint{}, err
			}
			p := CrashPoint{Scenario: sc.name, Plan: sc.plan.String()}
			res, err := crashcheck.Check(sc.plan)
			if err != nil {
				p.Err = err.Error()
				return p, nil
			}
			p.Result = *res
			return p, nil
		},
		func(rs *ResultSet, p CrashPoint) { rs.Crash = append(rs.Crash, p) })
}

// CrashReport renders the crash-recovery battery.
func CrashReport(points []CrashPoint) *Report {
	rep := &Report{
		ID:      "crash",
		Title:   "Extension: crash-recovery invariants after simulated power loss (Section 4.1.2)",
		Columns: []string{"Scenario", "Ops", "Moves", "Acked writes", "Entries recovered", "Verdict"},
	}
	for _, p := range points {
		verdict := "ok"
		if p.Err != "" {
			verdict = "VIOLATION: " + p.Err
		}
		rep.AddRow(p.Scenario, fmt.Sprintf("%d", p.Ops), fmt.Sprintf("%d", p.Moves),
			fmt.Sprintf("%d", p.AckedWrites), fmt.Sprintf("%d", p.Entries), verdict)
	}
	rep.AddNote("checked invariants: the block table decodes with every entry dirty, no block is lost or aliased, every block remains readable, and acknowledged writes read back exactly")
	return rep
}
