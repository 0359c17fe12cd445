package experiment

import "testing"

// ablationRuns returns the ablation matrix's rows, by name, from the
// golden's jobs=8 gather.
func ablationRuns(t *testing.T) ([]*Run, map[string]*Run) {
	t.Helper()
	var spec equivSpec
	for _, s := range equivSpecs {
		if s.id == "ablations" {
			spec = s
		}
	}
	runs := sharedRun(t, spec, 8, false).rs.Runs(NeedAblations)
	byName := map[string]*Run{}
	for _, run := range runs {
		byName[run.Experiment.Name] = run
	}
	return runs, byName
}

// seeks returns a run's on-day and off-day mean seek times.
func seeks(run *Run) (on, off float64) {
	offDay, onDay := detailDays(run)
	return onDay.Metrics(run.Curve, AllRequests).SeekMS, offDay.Metrics(run.Curve, AllRequests).SeekMS
}

// TestAblationRelations checks the design claims the ablation matrix
// backs, as orderings of its rows' mean seek times.
func TestAblationRelations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation matrix simulation in -short mode")
	}
	runs, byName := ablationRuns(t)
	on, off := map[string]float64{}, map[string]float64{}
	for name, run := range byName {
		on[name], off[name] = seeks(run)
	}
	for _, rel := range []struct {
		name, claim string
		holds       bool
	}{
		{"hotlist", "on-day seek: exact ≤ 1024 entries < 256 < 64 < 64's off day",
			on["baseline"] <= on["hotlist-1024"] && on["hotlist-1024"] < on["hotlist-256"] &&
				on["hotlist-256"] < on["hotlist-64"] && on["hotlist-64"] < off["hotlist-64"]},
		{"poll-period", "on-day seek: a 30 s, 2 min and 10 min poll give equal results",
			on["poll-30s"] == on["baseline"] && on["poll-10m"] == on["baseline"]},
		{"scheduler", "on-day seek: SCAN ≤ FCFS",
			on["baseline"] <= on["fcfs"]},
	} {
		t.Run(rel.name, func(t *testing.T) {
			if !rel.holds {
				t.Errorf("%s does not hold:\n%s", rel.claim, AblationsReport(runs).Render())
			}
		})
	}
}

func TestCylinderPolicyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation matrix simulation in -short mode")
	}
	_, byName := ablationRuns(t)
	run := byName["cylinder"]
	if run == nil {
		t.Fatal("ablation matrix has no cylinder row")
	}
	if len(run.Installed) == 0 || run.Installed[0] == 0 {
		t.Fatal("cylinder policy installed nothing")
	}
}

func TestCylinderGranularityWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation matrix simulation in -short mode")
	}
	// The paper's granularity argument (§1.1): whole-cylinder
	// rearrangement at the same data volume beats nothing but loses to
	// block granularity.
	_, byName := ablationRuns(t)
	block, cyl := byName["baseline"], byName["cylinder"]
	if block == nil || cyl == nil {
		t.Fatal("ablation matrix lacks the baseline or cylinder row")
	}
	blockOn, _ := seeks(block)
	cylOn, cylOff := seeks(cyl)
	if cylOn >= cylOff {
		t.Errorf("cylinder granularity did not help at all: %.2f -> %.2f", cylOff, cylOn)
	}
	if blockOn >= cylOn {
		t.Errorf("block granularity (%.2f ms) not better than cylinder granularity (%.2f ms)",
			blockOn, cylOn)
	}
}
