package experiment

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// TestFaultSweepParallelDeterminism is the determinism contract for
// fault injection: with a fixed fault seed, the fault-rate sweep must
// render byte-identical reports for 1 and 8 workers. Per-operation
// fault draws are keyed by (seed, op index), not by wall-clock or
// worker scheduling, so this must hold exactly.
func TestFaultSweepParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("repeat runs in -short mode")
	}
	render := func(workers int) string {
		reports, err := RunSpec(context.Background(), "faults",
			Options{Days: 1, WindowMS: 5 * 60 * 1000, Seed: 7},
			runner.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, r := range reports {
			sb.WriteString(r.Render())
		}
		return sb.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Errorf("fault sweep differs between 1 and 8 workers:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "Fault rate") {
		t.Errorf("faults report missing header:\n%s", seq)
	}
}

// The sweep's nonzero rates must actually inject faults, and the clean
// baseline must see none.
func TestFaultSweepInjectsFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	rs, err := Gather(context.Background(), []Need{NeedFaults},
		Options{Days: 1, WindowMS: 5 * 60 * 1000}, runner.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Faults) != len(DefaultFaultRates) {
		t.Fatalf("%d fault points, want %d", len(rs.Faults), len(DefaultFaultRates))
	}
	for i, run := range rs.Faults {
		rate, faults := run.Experiment.Devices.Faults[0].TransientRead, run.Counters.Faults
		if rate != DefaultFaultRates[i] {
			t.Errorf("point %d: rate %g, want %g (job-order assembly broken)", i, rate, DefaultFaultRates[i])
		}
		if rate == 0 && faults != 0 {
			t.Errorf("clean baseline recorded %d faults", faults)
		}
		if rate >= 1e-3 && faults == 0 {
			t.Errorf("rate %g injected no faults", rate)
		}
		if sum := Summarize(run.Days, run.Curve, AllRequests); sum.Service.Avg() <= 0 {
			t.Errorf("rate %g: no service time measured", rate)
		}
	}
}

// TestCrashSpecRecoversEveryScenario runs the registered crash battery
// and requires every scenario to recover with its invariants intact.
func TestCrashSpecRecoversEveryScenario(t *testing.T) {
	rs, err := Gather(context.Background(), []Need{NeedCrash},
		Options{}, runner.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Crash) != len(crashScenarios) {
		t.Fatalf("%d crash points, want %d", len(rs.Crash), len(crashScenarios))
	}
	for _, p := range rs.Crash {
		if p.Err != "" {
			t.Errorf("%s: %s", p.Scenario, p.Err)
		}
		if p.Ops == 0 {
			t.Errorf("%s: no operations before the crash", p.Scenario)
		}
	}
	spec, ok := Lookup("crash")
	if !ok {
		t.Fatal("crash not registered")
	}
	out := spec.Report(rs)[0].Render()
	if !strings.Contains(out, "mid block-copy") || strings.Contains(out, "VIOLATION") {
		t.Errorf("crash report:\n%s", out)
	}
}

// The driver's fault counters are sampler columns in every run: the
// last sample of a fault-injecting run counts its faults, and a clean
// run's reads zero.
func TestFaultCountersSampled(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	lastFaults := func(plan *fault.Plan) float64 {
		col := telemetry.NewCollector("fault-test", telemetry.Options{SamplePeriodMS: 60 * 1000})
		s := Experiment{Days: 1, WindowMS: 5 * 60 * 1000, Devices: Devices{Faults: []*fault.Plan{plan}}}
		if _, err := Execute(telemetry.NewContext(context.Background(), col), s); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := telemetry.WriteCSV(&buf, []*telemetry.Collector{col}); err != nil {
			t.Fatal(err)
		}
		rows, err := telemetry.ReadCSV(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Fatal("no samples")
		}
		v, ok := rows[len(rows)-1].Values["driver_faults"]
		if !ok {
			t.Fatalf("no driver_faults column in %v", rows[0].Values)
		}
		return v
	}
	if n := lastFaults(nil); n != 0 {
		t.Errorf("clean run sampled %v faults, want 0", n)
	}
	if n := lastFaults(&fault.Plan{Seed: 3, TransientWrite: 1e-3}); n <= 0 {
		t.Errorf("fault run sampled %v faults, want > 0", n)
	}
}
