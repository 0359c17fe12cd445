package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeAbrsim writes a script that stands in for abrsim: it prints the
// committed volume-scale sample, with a 7 in disks-8's FS errors cell
// when tamper is set. The command-line tests run the whole benchmark
// against it, so they exercise the one command without a simulation.
func fakeAbrsim(t *testing.T, tamper bool) string {
	t.Helper()
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	filter := "cat"
	if tamper {
		filter = `sed 's/^\(disks-8 .*\)0$/\17/'`
	}
	script := fmt.Sprintf("#!/bin/sh\n%s %s/volume-scale.stdout\ncat %s/volume-scale.stderr >&2\n", filter, testdata, testdata)
	path := filepath.Join(t.TempDir(), "abrsim")
	if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

// inTempDir runs the test from an empty directory, where the benchmark
// writes its bench/out files.
func inTempDir(t *testing.T) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

// contractLine decodes the last line of a run's stdout.
func contractLine(t *testing.T, stdout string) (correct bool, attempted, failed int64, metrics map[string]struct {
	Value float64
	Unit  string
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var line struct {
		Correct   *bool
		Attempted *int64
		Failed    *int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line of stdout is not the result object: %v\n%s", err, stdout)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || line.Metrics == nil {
		t.Fatalf("result object lacks a key: %s", lines[len(lines)-1])
	}
	return *line.Correct, *line.Attempted, *line.Failed, line.Metrics
}

func TestRunPrintsEveryEndToEndMetric(t *testing.T) {
	abrsim := fakeAbrsim(t, false)
	inTempDir(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "volume-scale", "--seed", "3", "--seconds", "1", "--trace", "0", "-abrsim", abrsim}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	correct, attempted, failed, metrics := contractLine(t, stdout.String())
	if !correct || attempted < 1 || failed != 0 {
		t.Errorf("correct %v, attempted %d, failed %d", correct, attempted, failed)
	}
	if len(metrics) != len(hostMetrics) {
		t.Errorf("%d metrics, want %d", len(metrics), len(hostMetrics))
	}
	for _, d := range hostMetrics {
		if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit || !(m.Value > 0) {
			t.Errorf("%s = %+v (present %v)", d.Name, m, ok)
		}
		if !strings.Contains(stdout.String(), "  "+d.Name+" ") {
			t.Errorf("%s is not printed by name", d.Name)
		}
	}
	for _, f := range []string{"bench/out/result.json", "bench/out/trace.json"} {
		if _, err := os.Stat(f); err != nil {
			t.Error(err)
		}
	}
	res, err := readResult("bench/out/result.json")
	if err != nil {
		t.Fatal(err)
	}
	if res.Env.Seed != 3 || res.Env.NProc < 1 || res.Env.GoVersion == "" ||
		len(res.Workloads[0].Commands) != 1 || len(res.Workloads[0].SimDigest) != 64 {
		t.Errorf("environment block = %+v", res.Env)
	}
	// The fake abrsim is done in milliseconds, so a one-second budget
	// holds many reps; and volume-scale runs at the pinned seed whatever
	// --seed says.
	if n := res.Workloads[0].Host["wall_s"].N; n < 2 {
		t.Errorf("--seconds 1 ran %d reps of a millisecond child", n)
	}
	if cmd := strings.Join(res.Workloads[0].Commands[0], " "); !strings.HasSuffix(cmd, "-jobs 1 -seed 1") {
		t.Errorf("child command line = %q", cmd)
	}
}

// --seed reaches abrsim on the workloads whose weight does not hang on
// it; the others keep pinnedSeed.
func TestSeedIsForwarded(t *testing.T) {
	b := &bench{o: options{seed: 3}}
	for i := range workloads {
		w := &workloads[i]
		want := "3"
		if w.pinSeed {
			want = fmt.Sprint(pinnedSeed)
		}
		if args := b.args(w, w.runs[0]); args[len(args)-2] != "-seed" || args[len(args)-1] != want {
			t.Errorf("%s runs with %v, want -seed %s", w.name, args, want)
		}
	}
}

func TestRunFailsOnATamperedReport(t *testing.T) {
	abrsim := fakeAbrsim(t, true)
	inTempDir(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "volume-scale", "--seconds", "1", "--trace", "0", "-abrsim", abrsim}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("a report with failed operations exited 0")
	}
	if !strings.Contains(stderr.String(), "volume-scale: 7 of") {
		t.Errorf("the failure is not named:\n%s", stderr.String())
	}
	if correct, _, failed, _ := contractLine(t, stdout.String()); correct || failed != 7 {
		t.Errorf("correct %v, failed %d", correct, failed)
	}
}

func TestRunRefusesGOGC(t *testing.T) {
	abrsim := fakeAbrsim(t, false)
	inTempDir(t)
	t.Setenv("GOGC", "200")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "volume-scale", "--trace", "0", "-abrsim", abrsim}, &stdout, &stderr); code == 0 ||
		!strings.Contains(stderr.String(), "GOGC") {
		t.Errorf("exit %d with GOGC set:\n%s", code, stderr.String())
	}
}

func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall float64) string {
		path := filepath.Join(dir, name)
		err := writeJSON(path, &result{Workloads: []*workloadResult{{
			Name: "paper-system", SimDigest: "aa",
			Host: map[string]summary{"wall_s": summarize("s", []float64{wall, wall * 1.01, wall * 1.02})},
			Sim:  map[string]float64{"sim_resp_ms": 53.75},
		}}})
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 10), write("same.json", 10.05), write("slow.json", 14)
	var out bytes.Buffer
	if code := run([]string{"-compare", a, same}, &out, &out); code != 0 {
		t.Errorf("A against itself: exit %d\n%s", code, out.String())
	}
	if code := run([]string{"-compare", a, slow}, &out, &out); code != 1 {
		t.Errorf("A against a slower B: exit %d\n%s", code, out.String())
	}
	if code := run([]string{"-compare", a, filepath.Join(dir, "absent.json")}, &out, &out); code != 2 {
		t.Errorf("A against a missing file: exit %d", code)
	}
}

// BENCHMARK.json repeats the names this package reports under; the two
// must not drift apart.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, got, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef, bounds bool) {
		if len(got) != len(want) {
			t.Errorf("%d %s metrics, want %d", len(got), kind, len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || (bounds && g.Bound != w.Bound) || (!bounds && g.Bound != 0) {
				t.Errorf("%s metric %d = %+v, want %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", file.EndToEnd, hostMetrics, true)
	same("per_layer", file.PerLayer, perLayerMetrics(), false)
	if n := len(file.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" || file.RunSeconds < 1 {
		t.Errorf("paths %v, run_seconds %d", file.Paths, file.RunSeconds)
	}
}
