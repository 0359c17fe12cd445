package experiment

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

func TestRegistryHasAllIDs(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "table4", "table5",
		"table6", "table7", "table8", "table9", "table10",
		"fig4", "fig5", "fig6", "fig7", "fig8",
		"shared", "faults", "crash", "volume-scale", "tenant-scale",
		"raid-rebuild", "trace-replay", "ablations",
		"onoff-system", "onoff-users", "policies", "sweep", "all",
	}
	ids := IDs()
	have := make(map[string]bool, len(ids))
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("id %q not registered", id)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("%d ids registered, want %d: %v", len(ids), len(want), ids)
	}
	for _, s := range Specs() {
		if s.Description == "" {
			t.Errorf("%s: no description", s.ID)
		}
	}
}

func TestRunSpecUnknownID(t *testing.T) {
	_, err := RunSpec(context.Background(), "table99", Options{}, runner.Config{})
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	if !strings.Contains(err.Error(), "table99") || !strings.Contains(err.Error(), "table2") {
		t.Errorf("error should name the bad id and list valid ones: %v", err)
	}
}

func TestGroupNeedsUnion(t *testing.T) {
	all, ok := Lookup("all")
	if !ok {
		t.Fatal("all not registered")
	}
	wantNeeds := map[Need]bool{NeedSystem: true, NeedUsers: true, NeedPolicies: true, NeedSweep: true}
	if len(all.Needs) != len(wantNeeds) {
		t.Fatalf("all.Needs = %v", all.Needs)
	}
	for _, n := range all.Needs {
		if !wantNeeds[n] {
			t.Errorf("all has unexpected need %v", n)
		}
	}
	if sh, _ := Lookup("shared"); len(sh.Needs) != 1 || sh.Needs[0] != NeedShared {
		t.Errorf("shared.Needs = %v", sh.Needs)
	}
}

func TestGatherDedupsNeeds(t *testing.T) {
	// Requesting the same need twice must not simulate it twice.
	var total int
	_, err := Gather(context.Background(),
		[]Need{NeedSystem, NeedSystem},
		Options{Days: 1, WindowMS: 5 * 60 * 1000},
		runner.Config{Workers: 2, OnProgress: func(p runner.Progress) { total = p.Total }})
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 {
		t.Errorf("%d jobs for a duplicated need, want 2 (one per disk)", total)
	}
}

func TestExecuteCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Execute(ctx, Experiment{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunSpecTimeoutWindsDownPromptly(t *testing.T) {
	// A timeout far shorter than the simulation must interrupt the
	// engines mid-run and surface context.DeadlineExceeded quickly.
	start := time.Now()
	_, err := RunSpec(context.Background(), "table2",
		Options{Days: 4, WindowMS: FullWindowMS},
		runner.Config{Workers: 2, Timeout: 100 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("wind-down took %v", d)
	}
}

// TestEveryIDRendersOneDay renders every registered id from one gather
// of every need at one day of one minute: a run too short to have an on
// day must say so in its reports, not crash them.
func TestEveryIDRendersOneDay(t *testing.T) {
	if testing.Short() {
		t.Skip("every need simulated in -short mode")
	}
	var needs []Need
	for n := Need(0); n < needCount; n++ {
		needs = append(needs, n)
	}
	rs, err := Gather(context.Background(), needs, Options{Days: 1, WindowMS: 60_000}, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Specs() {
		for _, r := range s.Report(rs) {
			if r.Render() == "" {
				t.Errorf("%s: empty render", s.ID)
			}
		}
	}
	for id, rep := range map[string]*Report{
		"table3":    Table3(rs.Runs(NeedSystem)),
		"ablations": AblationsReport(rs.Runs(NeedAblations)),
	} {
		if out := rep.Render(); !strings.Contains(out, "insufficient days") {
			t.Errorf("%s of a one-day run does not say it lacks an on day:\n%s", id, out)
		}
	}
}
