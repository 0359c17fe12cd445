package experiment

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// This file is the engine-equivalence lock: the golden files under
// testdata/equiv were rendered before the sim engine's event queue was
// rewritten (PR 4), and every simulation result the harness emits must
// stay byte-identical across that rewrite. The specs cover the two
// experiment families whose numbers the paper's tables quote (table2:
// on/off, table7: placement policies), the two fault-tolerance
// extensions ("faults", "crash"), whose retry/backoff timing is the
// most sensitive to event-ordering changes, the multi-disk volume
// matrix ("volume-scale"), whose fan-out/fan-in ordering across member
// disks sharing one engine is locked here, the multi-tenant server
// matrix ("tenant-scale"), which layers the network, QoS, and breaker
// event traffic on top of the volume fan-in, and the parity matrix
// ("raid-rebuild"), whose degraded reconstruction, background rebuild,
// and scrub traffic interleave with foreground requests through the
// row locks.
//
// Regenerate with UPDATE_EQUIV_GOLDEN=1 go test ./internal/experiment
// -run TestEngineEquivalenceGolden — but only when an intentional
// simulation-semantics change is being made; a diff here means the
// engine no longer fires events in the committed order.

// equivOptions is the compressed fixed configuration the goldens were
// generated with: 2 days at a 30-minute window keeps the whole battery
// fast while still exercising rearrangement (day 1 is an on-day).
func equivOptions() Options {
	return Options{Days: 2, WindowMS: 30 * 60 * 1000}
}

// equivSpecs lists the locked experiment ids. "table7" and
// "volume-scale" are skipped in -short mode (they simulate the 3x2
// policy matrix and the 10-configuration volume matrix); the other
// three always run, including under -race in CI.
var equivSpecs = []struct {
	id    string
	short bool // runs in -short mode too
	days  int  // override equivOptions().Days when > 0
}{
	{id: "table2", short: true},
	{id: "faults", short: true},
	{id: "crash", short: true},
	{id: "table7"},
	{id: "volume-scale"},
	{id: "tenant-scale"},
	// One day, not two: the parity matrix has no rearrangement (nothing
	// distinguishes day 1 from day 0) and six rows at full fan-out, so
	// the second day would only double the battery's wall clock.
	{id: "raid-rebuild", days: 1},
	// The trace-replay matrix is day-free (capture once, replay once or
	// twice); it locks the tracein capture → scale → replay pipeline,
	// whose open-loop arrival batching and pooled completion order are
	// new event-ordering surface. Not in -short: each row re-captures
	// the source trace, and the race step's time budget is spent on the
	// tracein package's own battery instead.
	{id: "trace-replay"},
}

// renderSpec gathers one spec on the given worker count and renders its
// reports exactly as abrsim prints them. days > 0 overrides the fixed
// day count.
func renderSpec(t *testing.T, id string, days, workers int) string {
	t.Helper()
	o := equivOptions()
	if days > 0 {
		o.Days = days
	}
	reports, err := RunSpec(context.Background(), id, o,
		runner.Config{Workers: workers})
	if err != nil {
		t.Fatalf("%s (jobs=%d): %v", id, workers, err)
	}
	var sb strings.Builder
	for _, r := range reports {
		sb.WriteString(r.Render())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestEngineEquivalenceGolden(t *testing.T) {
	for _, spec := range equivSpecs {
		spec := spec
		t.Run(spec.id, func(t *testing.T) {
			if testing.Short() && !spec.short {
				t.Skip("policy matrix simulation in -short mode")
			}
			got := renderSpec(t, spec.id, spec.days, 1)
			path := filepath.Join("testdata", "equiv", spec.id+".golden")
			if os.Getenv("UPDATE_EQUIV_GOLDEN") != "" {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (generate with UPDATE_EQUIV_GOLDEN=1): %v", err)
			}
			if got != string(want) {
				gotPath := path + ".got"
				_ = os.WriteFile(gotPath, []byte(got), 0o644)
				t.Errorf("%s output differs from pre-rewrite golden %s; observed bytes written to %s",
					spec.id, path, gotPath)
			}
			// The parallel gather must agree byte-for-byte with the
			// sequential one — the runner's ordering contract, re-checked
			// here because the pooled engine must stay job-private.
			if par := renderSpec(t, spec.id, spec.days, 8); par != got {
				t.Errorf("%s: jobs=8 output differs from jobs=1", spec.id)
			}
		})
	}
}

// metricsJSON runs one spec with metrics histograms enabled and
// returns the per-job snapshot document as abrsim -metrics writes it.
func metricsJSON(t *testing.T, id string, o Options, workers int) string {
	t.Helper()
	o.Telemetry = &telemetry.Options{Metrics: true}
	_, rs, err := RunSpecFull(context.Background(), id, o,
		runner.Config{Workers: workers})
	if err != nil {
		t.Fatalf("%s (jobs=%d): %v", id, workers, err)
	}
	jobs := telemetry.MetricsSnapshots(rs.Collectors)
	if len(jobs) == 0 {
		t.Fatalf("%s: no metrics snapshots collected", id)
	}
	var sb strings.Builder
	if err := metrics.WriteJSON(&sb, jobs); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestMetricsDeterminism pins the metrics core's determinism contract
// end to end: the JSON snapshot — every bucket count, sum, and
// quantile input — must be byte-identical for any harness worker
// count.
func TestMetricsDeterminism(t *testing.T) {
	for _, spec := range []struct {
		id    string
		short bool // runs in -short mode too
	}{
		{"table2", true},
		{"faults", true},
		{"volume-scale", false},
		{"tenant-scale", false},
		{"trace-replay", false},
	} {
		spec := spec
		t.Run(spec.id, func(t *testing.T) {
			if testing.Short() && !spec.short {
				t.Skip("volume matrix simulation in -short mode")
			}
			base := metricsJSON(t, spec.id, equivOptions(), 1)
			if got := metricsJSON(t, spec.id, equivOptions(), 8); got != base {
				t.Errorf("%s: jobs=8 metrics snapshot differs from jobs=1", spec.id)
			}
		})
	}
}
