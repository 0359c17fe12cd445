package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// The samples under testdata/ are real abrsim output at set-up-probe
// sized windows (testdata/README says how they were made), so these
// tests pin the parsers to the program's actual formats without running
// a simulation.

// loadSample reads one workload's committed stdout, stderr and snapshots.
func loadSample(t *testing.T, w *workload, observed bool) (stdout, stderr []byte, snap [][]metrics.JobSnapshot) {
	t.Helper()
	read := func(name string) []byte {
		data, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for i := range w.runs {
		suffix := ""
		if len(w.runs) > 1 {
			suffix = "-" + string(rune('0'+i))
		}
		stdout = append(stdout, read(w.name+suffix+".stdout")...)
		stderr = append(stderr, read(w.name+suffix+".stderr")...)
		if observed {
			zr, err := gzip.NewReader(bytes.NewReader(read(w.name + suffix + ".metrics.json.gz")))
			if err != nil {
				t.Fatal(err)
			}
			s, err := metrics.ReadJSON(zr)
			if err != nil {
				t.Fatal(err)
			}
			snap = append(snap, s)
		}
	}
	return stdout, stderr, snap
}

// readSample runs a workload's report reader over its sample.
func readSample(t *testing.T, w *workload, stdout, stderr []byte, snap [][]metrics.JobSnapshot) (*report, error) {
	t.Helper()
	r := &report{windowS: w.windowS, snap: snap, sim: make(map[string]float64), layer: make(map[string]float64)}
	var err error
	if r.tables, err = parseReports(stdout); err != nil {
		return nil, err
	}
	if r.jobs, err = parseJobs(stderr); err != nil {
		return nil, err
	}
	if err := w.read(r); err != nil {
		return nil, err
	}
	if snap != nil {
		readSnapshot(r)
	}
	return r, nil
}

func TestEveryWorkloadReadsItsSample(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			stdout, stderr, snap := loadSample(t, w, true)
			for _, observed := range []bool{false, true} {
				s := snap
				if !observed {
					s = nil
				}
				r, err := readSample(t, w, stdout, stderr, s)
				if err != nil {
					t.Fatalf("observed=%v: %v", observed, err)
				}
				if r.attempted < 1 || r.failed != 0 {
					t.Errorf("observed=%v: attempted %d, failed %d", observed, r.attempted, r.failed)
				}
				if v := r.sim["sim_resp_ms"]; !(v > 0) {
					t.Errorf("observed=%v: sim_resp_ms = %v", observed, v)
				}
				for name, v := range r.sim {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s = %v", name, v)
					}
				}
				if observed {
					if r.layer["sim.events"] <= 0 || r.layer["driver.requests"] <= 0 || r.layer["runner.jobs"] <= 0 {
						t.Errorf("observed run without events, requests or jobs: %v", r.layer)
					}
					if _, ok := r.sim["fail_share"]; !ok {
						t.Error("observed run has no fail_share")
					}
				}
			}
		})
	}
}

// Spot checks against figures read off the samples by eye.
func TestSampleFigures(t *testing.T) {
	for _, tc := range []struct {
		workload, metric string
		layer            bool
		want             float64
	}{
		{"paper-system", "sim_resp_ms", false, (24.09 + 30.43 + 13.62 + 16.18) / 2},
		{"paper-system", "seek_reduction_pct", false, 100 * ((1 - 4.29/14.56) + (1 - 0.69/6.85)) / 2},
		{"volume-scale", "sim_req_per_s", false, 867.0},
		{"raid-rebuild", "volume.parity_rw", true, 5*3030 + 3078},
		{"tenant-server", "sim_p99_ms", false, 440.70},
		{"tenant-server", "server.breaker_opens", true, 1},
		{"trace-replay", "tracein.records", true, 4 * 4 * 200},
		{"trace-replay", "seek_reduction_pct", false, (83.7 + 82.6) / 2},
	} {
		w, err := findWorkload(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		stdout, stderr, snap := loadSample(t, w, true)
		r, err := readSample(t, w, stdout, stderr, snap)
		if err != nil {
			t.Fatal(err)
		}
		got := r.sim[tc.metric]
		if tc.layer {
			got = r.layer[tc.metric]
		}
		if math.Abs(got-tc.want) > 1e-9*math.Max(1, math.Abs(tc.want)) {
			t.Errorf("%s %s = %v, want %v", tc.workload, tc.metric, got, tc.want)
		}
	}
}

func TestTamperedReportFailsByName(t *testing.T) {
	w, err := findWorkload("volume-scale")
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, _ := loadSample(t, w, false)

	// A missing row is an error that names the row.
	var kept [][]byte
	for _, line := range bytes.SplitAfter(stdout, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("mirror-sq ")) {
			kept = append(kept, line)
		}
	}
	if _, err := readSample(t, w, bytes.Join(kept, nil), stderr, nil); err == nil || !strings.Contains(err.Error(), "mirror-sq") {
		t.Errorf("report without the mirror-sq row: err = %v", err)
	}

	// A non-zero error cell is counted as failed operations.
	lines := strings.SplitAfter(string(stdout), "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "disks-8 ") {
			lines[i] = strings.TrimRight(line, "0\n") + "7\n"
		}
	}
	r, err := readSample(t, w, []byte(strings.Join(lines, "")), stderr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 7 {
		t.Errorf("failed = %d with 7 in an FS errors cell", r.failed)
	}
}

func TestParseReportsCutsAtHeaderOffsets(t *testing.T) {
	// Cells with single spaces and an empty cell must stay in their
	// columns.
	in := "x: title\n" +
		"Config   Read policy     Resp (ms)  Note\n" +
		"mirror   shortest queue  12.50      a b\n" +
		"stripe                   7.25       \n" +
		"note: n\n\n"
	tables, err := parseReports([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if tb.id != "x" || len(tb.cols) != 4 || len(tb.rows) != 2 {
		t.Fatalf("parsed %+v", tb)
	}
	if got := tb.rows[0][1]; got != "shortest queue" {
		t.Errorf("cell = %q", got)
	}
	if got := tb.rows[1]; got[1] != "" || got[2] != "7.25" {
		t.Errorf("row with an empty cell = %q", got)
	}
	if v, err := tb.num(tb.rows[0], "Resp (ms)"); err != nil || v != 12.5 {
		t.Errorf("num = %v, %v", v, err)
	}
}

func TestParseJobs(t *testing.T) {
	in := "abrsim: running \"x\" on 1 worker(s)\n" +
		"abrsim: 1/2 jobs, 1.0/2 sim-days, 0.57 sim-days/sec\n" +
		"abrsim: done in 1.0s\n" +
		"abrsim: job                            wall  sim-days   days/sec       events      spans\n" +
		"abrsim: onoff/system/toshiba         7.006s       4.0       0.57      4604400          0\n" +
		"abrsim: volume/disks-1                613ms       2.0       3.26      2702512          0  FAILED\n"
	jobs, err := parseJobs([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].name != "onoff/system/toshiba" || jobs[0].wall.Milliseconds() != 7006 ||
		jobs[0].events != 4604400 || jobs[0].failed || !jobs[1].failed || jobs[1].wall.Milliseconds() != 613 {
		t.Errorf("jobs = %+v", jobs)
	}
	if _, err := parseJobs([]byte("abrsim: done in 1.0s\n")); err == nil {
		t.Error("stderr without a job table parsed")
	}
}

func TestMergeHist(t *testing.T) {
	a := metrics.NewHistogram(metrics.HistogramOpts{})
	b := metrics.NewHistogram(metrics.HistogramOpts{})
	both := metrics.NewHistogram(metrics.HistogramOpts{})
	for i := 1; i <= 1000; i++ {
		h := a
		if i%3 == 0 {
			h = b
		}
		h.Record(float64(i))
		both.Record(float64(i))
	}
	snapOf := func(name string, h *metrics.Histogram) metrics.JobSnapshot {
		reg := metrics.NewRegistry()
		if err := reg.Histogram("lat_ms", metrics.HistogramOpts{}, metrics.Label{Key: "disk", Value: name}).Merge(h); err != nil {
			t.Fatal(err)
		}
		reg.Counter("lat_ms_other").Add(5)
		return metrics.JobSnapshot{Job: name, Metrics: reg.Snapshot().Metrics}
	}
	jobs := []metrics.JobSnapshot{snapOf("0", a), snapOf("1", b)}
	got := mergeHist(jobs, "lat_ms", "")
	if got.Count != 1000 || got.Quantile(0.99) != both.Quantile(0.99) || got.Mean() != both.Mean() || got.Max != 1000 {
		t.Errorf("merged: count %d p99 %v mean %v max %v; want p99 %v mean %v",
			got.Count, got.Quantile(0.99), got.Mean(), got.Max, both.Quantile(0.99), both.Mean())
	}
	if one := mergeHist(jobs, "lat_ms", `disk="1"`); one.Count != 333 {
		t.Errorf("label filter kept %d observations, want 333", one.Count)
	}
	if v := sumValues(jobs, "lat_ms_other", ""); v != 10 {
		t.Errorf("sumValues = %v, want 10", v)
	}
	if v := sumValues(jobs, "lat_ms", ""); v != 0 {
		t.Errorf("sumValues over a histogram name = %v, want 0 (base names must match whole)", v)
	}
}
