package experiment

import (
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
	// metrics marks a spec TestMetricsDeterminism locks as well. Its
	// three simulations are shared between the two tests: plain jobs=1,
	// observed (metrics and sampler on) jobs=1 and observed jobs=8,
	// instead of a plain and an observed pair each.
	metrics bool
}{
	{id: "table2", short: true, metrics: true},
	{id: "faults", short: true, metrics: true},
	{id: "crash", short: true},
	{id: "table7"},
	{id: "volume-scale", metrics: true},
	{id: "tenant-scale", metrics: true},
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
	{id: "trace-replay", metrics: true},
}

// specRun is what one run of a spec wrote: the reports exactly as
// abrsim prints them and, for an observed run, the per-job snapshot
// document as abrsim -metrics writes it and the time series as abrsim
// -sample writes it.
type specRun struct{ stdout, snapshot, csv string }

// runSpec gathers one spec on the given worker count. days > 0
// overrides the fixed day count; observed turns the metrics and a
// one-minute sampler on, and fails the test if any job's snapshot is
// empty or its sampler columns are not its registry's counters and
// gauges, in registration order.
func runSpec(t *testing.T, id string, days, workers int, observed bool) specRun {
	t.Helper()
	o := equivOptions()
	if days > 0 {
		o.Days = days
	}
	if observed {
		o.Telemetry = &telemetry.Options{Metrics: true, SamplePeriodMS: 60_000}
	}
	reports, rs, err := RunSpecFull(context.Background(), id, o,
		runner.Config{Workers: workers})
	if err != nil {
		t.Fatalf("%s (jobs=%d): %v", id, workers, err)
	}
	var run specRun
	var sb strings.Builder
	for _, r := range reports {
		sb.WriteString(r.Render())
		sb.WriteByte('\n')
	}
	run.stdout = sb.String()
	if observed {
		jobs := telemetry.MetricsSnapshots(rs.Collectors)
		if len(jobs) != len(rs.Collectors) {
			t.Fatalf("%s: %d metrics snapshots for %d jobs", id, len(jobs), len(rs.Collectors))
		}
		for i, j := range jobs {
			if len(j.Metrics) == 0 {
				t.Errorf("%s: job %s bound no metrics", id, j.Job)
			}
			checkSamplerColumns(t, rs.Collectors[i], j)
		}
		sb.Reset()
		if err := metrics.WriteJSON(&sb, jobs); err != nil {
			t.Fatal(err)
		}
		run.snapshot = sb.String()
		sb.Reset()
		if err := telemetry.WriteCSV(&sb, rs.Collectors); err != nil {
			t.Fatal(err)
		}
		run.csv = sb.String()
	}
	return run
}

// checkSamplerColumns fails the test unless the job's sampler header
// names, after job and t_ms, exactly the counters and gauges of its
// snapshot, in order: every column is a view of the registry.
func checkSamplerColumns(t *testing.T, col *telemetry.Collector, job metrics.JobSnapshot) {
	t.Helper()
	header, err := csv.NewReader(strings.NewReader(col.CSVHeader())).Read()
	if err != nil {
		t.Errorf("job %s: sampler header %q: %v", job.Job, col.CSVHeader(), err)
		return
	}
	var want []string
	for _, m := range job.Metrics {
		if m.Hist == nil {
			want = append(want, m.Name)
		}
	}
	if len(header) < 2 || !slices.Equal(header[2:], want) {
		t.Errorf("job %s: sampler columns\n%q\nare not the registry's counters and gauges\n%q", job.Job, header, want)
	}
}

// metricsRuns memoizes the observed runs the two tests share.
var metricsRuns = map[string]specRun{}

// metricsRun returns the spec's observed run at the given worker
// count, simulating it the first time either test asks.
func metricsRun(t *testing.T, id string, workers int) specRun {
	t.Helper()
	key := fmt.Sprintf("%s/jobs=%d", id, workers)
	run, ok := metricsRuns[key]
	if !ok {
		run = runSpec(t, id, 0, workers, true)
		metricsRuns[key] = run
	}
	return run
}

func goldenPath(id string) string { return filepath.Join("testdata", "equiv", id+".golden") }

func TestEngineEquivalenceGolden(t *testing.T) {
	for _, spec := range equivSpecs {
		spec := spec
		t.Run(spec.id, func(t *testing.T) {
			if testing.Short() && !spec.short {
				t.Skip("policy matrix simulation in -short mode")
			}
			got := runSpec(t, spec.id, spec.days, 1, false).stdout
			path := goldenPath(spec.id)
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
			// here because the pooled engine must stay job-private. Where
			// TestMetricsDeterminism runs the spec at jobs=8 anyway, that
			// run stands in: stdout is the same observed or not.
			var par string
			if spec.metrics {
				par = metricsRun(t, spec.id, 8).stdout
			} else {
				par = runSpec(t, spec.id, spec.days, 8, false).stdout
			}
			if par != got {
				t.Errorf("%s: jobs=8 output differs from jobs=1", spec.id)
			}
		})
	}
}

// TestMetricsDeterminism pins the metrics core's determinism contract
// end to end: the JSON snapshot — every bucket count, sum, and
// quantile input — and the sampler's time series must be
// byte-identical for any harness worker count, no job's snapshot may
// be empty, and observing — metrics and sampler both on — must not
// move a byte of stdout (checked against the golden, where the spec
// has one).
func TestMetricsDeterminism(t *testing.T) {
	type row struct {
		id            string
		short, golden bool
	}
	// "shared" has no golden; it is here because it is the experiment
	// that once bound no metrics at all.
	rows := []row{{id: "shared", short: true}}
	for _, spec := range equivSpecs {
		if spec.metrics {
			rows = append(rows, row{spec.id, spec.short, true})
		}
	}
	for _, spec := range rows {
		spec := spec
		t.Run(spec.id, func(t *testing.T) {
			if testing.Short() && !spec.short {
				t.Skip("volume matrix simulation in -short mode")
			}
			base, par := metricsRun(t, spec.id, 1), metricsRun(t, spec.id, 8)
			if par.snapshot != base.snapshot {
				t.Errorf("%s: jobs=8 metrics snapshot differs from jobs=1", spec.id)
			}
			if base.csv == "" || par.csv != base.csv {
				t.Errorf("%s: jobs=8 time series differs from jobs=1 (%d vs %d bytes)", spec.id, len(par.csv), len(base.csv))
			}
			if !spec.golden {
				return
			}
			want, err := os.ReadFile(goldenPath(spec.id))
			if err != nil {
				t.Fatal(err)
			}
			for jobs, run := range map[int]specRun{1: base, 8: par} {
				if run.stdout != string(want) {
					t.Errorf("%s: stdout observed (jobs=%d) differs from the golden", spec.id, jobs)
				}
			}
		})
	}
}
