package experiment

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/fault/crashcheck"
)

// This file registers the fault-tolerance extension experiments — runs
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

// FaultPoint is the outcome of one run of the fault-rate sweep.
type FaultPoint struct {
	// Rate is the per-operation transient failure probability (both
	// directions).
	Rate float64
	// ServiceMS and WaitMS are the mean service and queueing times over
	// all measured days; service time includes retry backoff.
	ServiceMS float64
	WaitMS    float64
	// Faults..Unrecovered are the driver's lifetime fault counters.
	Faults      int64
	Retries     int64
	Remaps      int64
	Unrecovered int64
	// WorkloadErrors counts file operations that failed outright.
	WorkloadErrors int64
}

// faultUnits decomposes the fault-rate sweep into one independent run
// per rate. All runs share one workload seed and one fault seed, so the
// sweep isolates the rate.
func faultUnits(o Options) []unit {
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	var rows []Setup
	for _, rate := range DefaultFaultRates {
		s := o.setup("toshiba", "system", 2)
		s.OnPattern = everyDayAfterWarmup
		s.Fault = &fault.Plan{Seed: seed, TransientRead: rate, TransientWrite: rate}
		rows = append(rows, s)
	}
	return matrixUnits(rows,
		func(s Setup) (string, float64) {
			return fmt.Sprintf("faults/%g", s.Fault.TransientRead), float64(s.Days)
		},
		func(ctx context.Context, s Setup) (FaultPoint, error) {
			run, err := Execute(ctx, s)
			if err != nil {
				return FaultPoint{}, err
			}
			sum := Summarize(run.Days, run.Curve, AllRequests)
			c := run.Counters
			return FaultPoint{
				Rate:           s.Fault.TransientRead,
				ServiceMS:      sum.Service.Avg(),
				WaitMS:         sum.Wait.Avg(),
				Faults:         c.Faults,
				Retries:        c.Retries,
				Remaps:         c.Remaps,
				Unrecovered:    c.Unrecovered,
				WorkloadErrors: run.WorkloadErrors,
			}, nil
		},
		func(rs *ResultSet, _ Setup, p FaultPoint) { rs.Faults = append(rs.Faults, p) })
}

// FaultsReport renders the fault-rate sweep with the clean baseline's
// response times alongside for the degradation comparison.
func FaultsReport(points []FaultPoint) *Report {
	rep := &Report{
		ID:      "faults",
		Title:   "Extension: response time vs transient device fault rate (Toshiba, system FS)",
		Columns: []string{"Fault rate", "Faults", "Retries", "Unrecovered", "Service (ms)", "Wait (ms)", "FS errors"},
	}
	var base FaultPoint
	for _, p := range points {
		if p.Rate == 0 {
			base = p
		}
	}
	for _, p := range points {
		rep.AddRow(fmt.Sprintf("%g", p.Rate),
			fmt.Sprintf("%d", p.Faults), fmt.Sprintf("%d", p.Retries),
			fmt.Sprintf("%d", p.Unrecovered),
			f2(p.ServiceMS), f2(p.WaitMS), fmt.Sprintf("%d", p.WorkloadErrors))
	}
	if base.ServiceMS > 0 {
		worst := points[len(points)-1]
		rep.AddNote("service-time degradation at rate %g: %+.1f%% vs the clean baseline (retry backoff counts toward service time)",
			worst.Rate, (worst.ServiceMS/base.ServiceMS-1)*100)
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
	// Ops is the device-operation count at the power loss; Moves and
	// AckedWrites the committed rearrangements and acknowledged writes.
	Ops         int64
	Moves       int
	AckedWrites int
	// Entries is the recovered block-table size.
	Entries int
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
func crashUnits(Options) []unit {
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
			p.Ops, p.Moves, p.AckedWrites, p.Entries =
				res.Ops, res.Moves, res.AckedWrites, res.Entries
			return p, nil
		},
		func(rs *ResultSet, _ crashScenario, p CrashPoint) { rs.Crash = append(rs.Crash, p) })
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

// registerFaults registers the fault-tolerance extension experiments.
func registerFaults() {
	Register(Spec{
		ID: "faults", Description: "extension: response-time degradation under transient device faults",
		Needs: []Need{NeedFaults},
		Report: func(rs *ResultSet) []Renderable {
			return []Renderable{FaultsReport(rs.Faults)}
		},
	})
	Register(Spec{
		ID: "crash", Description: "extension: crash-recovery invariant checks after power loss",
		Needs: []Need{NeedCrash},
		Report: func(rs *ResultSet) []Renderable {
			return []Renderable{CrashReport(rs.Crash)}
		},
	})
}
