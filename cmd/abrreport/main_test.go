package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/tracein"
)

// A two-section sampler CSV as abrsim -sample writes for a mixed run:
// a single-disk job, whose unlabelled counters are the disk's own, with
// a two-label cache column quoted the RFC 4180 way, then a volume job
// whose counters carry a disk label per member (member 0 has no fault
// plan, so its counters stay zero).
const mixedCSV = `job,t_ms,driver_faults,driver_retries,driver_remaps,driver_unrecovered,driver_queue_len,"cache_hits{cache=""data"",fs=""sys""}"
onoff/system/toshiba,1000,2,2,0,0,3,40
onoff/system/toshiba,2000,7,8,1,0,5,90
job,t_ms,"driver_faults{disk=""0""}","driver_retries{disk=""0""}","driver_remaps{disk=""0""}","driver_unrecovered{disk=""0""}","driver_queue_len{disk=""0""}","driver_faults{disk=""1""}","driver_retries{disk=""1""}","driver_remaps{disk=""1""}","driver_unrecovered{disk=""1""}","driver_queue_len{disk=""1""}"
volume/mirror-degraded,1000,0,0,0,0,2,1,1,0,0,2
volume/mirror-degraded,2000,0,0,0,0,3,9,11,2,1,3
`

func TestSummarizeTelemetryPerDiskCounters(t *testing.T) {
	var sb strings.Builder
	if err := summarizeTelemetry(&sb, strings.NewReader(mixedCSV), "mixed.csv"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	// Both jobs are summarized, each with its own counter lines from its
	// final sample.
	for _, want := range []string{
		"onoff/system/toshiba: queue depth over time",
		"  fault counters: 7 faults, 8 retries, 1 remaps, 0 unrecovered",
		"volume/mirror-degraded: queue depth over time",
		"  disk 1 fault counters: 9 faults, 11 retries, 2 remaps, 1 unrecovered",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n\n%s", want, out)
		}
	}
	// The volume job has no unlabelled counters and member 0 counted
	// nothing: neither line may be fabricated for them.
	volPart := out[strings.Index(out, "volume/mirror-degraded"):]
	if strings.Contains(volPart, "  fault counters:") {
		t.Errorf("volume job got an aggregate fault line it never sampled\n\n%s", volPart)
	}
	if strings.Contains(out, "disk 0 fault counters") {
		t.Errorf("disk 0 has no fault plan but got a counter line\n\n%s", out)
	}
}

func TestSummarizeTelemetryNoFaultColumns(t *testing.T) {
	const plain = "job,t_ms,driver_queue_len,driver_faults,driver_retries,driver_remaps,driver_unrecovered\nonoff/system/toshiba,1000,3,0,0,0,0\n"
	var sb strings.Builder
	if err := summarizeTelemetry(&sb, strings.NewReader(plain), "plain.csv"); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "fault counters") {
		t.Errorf("fault lines printed for a file without fault columns\n\n%s", sb.String())
	}
}

// buildMetricsSnapshot builds a two-job snapshot the way a volume run
// would: a plain job with one histogram, and a volume job whose driver
// histograms carry per-member disk labels.
func buildMetricsSnapshot(t *testing.T) string {
	t.Helper()
	reg := metrics.NewRegistry()
	h := reg.Histogram("driver_service_ms", metrics.HistogramOpts{})
	for i := 1; i <= 1000; i++ {
		h.Record(float64(i))
	}
	reg.Counter("driver_requests").Add(1000)

	vreg := metrics.NewRegistry()
	hv := vreg.Histogram("driver_service_ms", metrics.HistogramOpts{},
		metrics.Label{Key: "disk", Value: "3"})
	hv.Record(12.5)
	vreg.Gauge("volume_dead_members").Set(1)

	jobs := []metrics.JobSnapshot{
		{Job: "onoff/system/toshiba", Metrics: reg.Snapshot().Metrics},
		{Job: "volume/mirror-degraded", Metrics: vreg.Snapshot().Metrics},
	}
	var sb strings.Builder
	if err := metrics.WriteJSON(&sb, jobs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReportMetricsPercentileTable(t *testing.T) {
	path := buildMetricsSnapshot(t)
	var sb strings.Builder
	if err := reportMetrics(&sb, path); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"onoff/system/toshiba: metrics snapshot",
		"p99", "p999", // percentile columns present
		"driver_service_ms",
		"volume/mirror-degraded: metrics snapshot",
		`driver_service_ms{disk="3"}`, // per-member row keeps its label
		"counter = 1000",
		"gauge = 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n\n%s", want, out)
		}
	}
	// 1000 uniform values 1..1000: the log-linear buckets bound each
	// quantile within ~3.2%, so p50 lands near 500 and max is exact.
	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "driver_service_ms") && !strings.Contains(l, "disk") {
			line = l
			break
		}
	}
	fields := strings.Fields(line)
	if len(fields) < 8 {
		t.Fatalf("malformed histogram row %q", line)
	}
	p50, err := strconv.ParseFloat(fields[3], 64)
	if err != nil {
		t.Fatal(err)
	}
	if p50 < 500 || p50 > 520 {
		t.Errorf("p50 = %v, want within [500, 520]", p50)
	}
	if max := fields[7]; max != "1000.000" {
		t.Errorf("max = %s, want 1000.000", max)
	}
}

func TestReportMetricsErrors(t *testing.T) {
	if err := reportMetrics(io.Discard, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file did not error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := reportMetrics(io.Discard, bad); err == nil {
		t.Error("malformed file did not error")
	}
}

func TestConvertChrome(t *testing.T) {
	in := filepath.Join(t.TempDir(), "spans.jsonl")
	line := `{"k":"span","w":0,"int":0,"orig":1,"sec":100,"n":16,"qd":1,` +
		`"arr":1.0,"disp":2.0,"seek":1.5,"rot":2.0,"xfer":0.5,"done":9.5,` +
		`"dist":10,"redir":0,"bh":0}` + "\n"
	if err := os.WriteFile(in, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "chrome.json")
	if err := convertChrome(in, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("output is not a JSON array: %v", err)
	}
	found := false
	for _, e := range events {
		if e["ph"] == "X" && e["name"] == "read" {
			found = true
		}
	}
	if !found {
		t.Errorf("no complete read event in output\n%s", data)
	}
}

// replayRecords is a few hundred requests with a hot set worth
// rearranging: two in three go to eight blocks spread over the disk,
// the rest wander. Times are whole milliseconds from 0, which all three
// encodings below carry exactly (MSR rebases its first event to 0).
func replayRecords() []trace.Record {
	hot := []int64{40, 2900, 5100, 7700, 9300, 11000, 12800, 14100}
	recs := make([]trace.Record, 300)
	for i := range recs {
		blk := hot[i*7%len(hot)]
		if i%3 == 0 {
			blk = int64(i) * 997 % 15000
		}
		recs[i] = trace.Record{TimeMS: float64(5 * i), Write: i%5 == 0, Block: blk}
	}
	return recs
}

// The replay path end to end: the same records written as binary, text
// and MSR CSV must be detected and read back to the same report, and
// -rearrange must move blocks and report a second replay.
func TestRunSameReportFromEveryEncoding(t *testing.T) {
	recs := replayRecords()
	var bin, text, msr bytes.Buffer
	if err := trace.WriteBinary(&bin, recs); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteText(&text, recs); err != nil {
		t.Fatal(err)
	}
	msr.WriteString("Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n")
	for _, r := range recs {
		typ := "Read"
		if r.Write {
			typ = "Write"
		}
		fmt.Fprintf(&msr, "%d,host,0,%s,%d,8192,0\n", 128166372000000000+int64(r.TimeMS)*10_000, typ, r.Block*8192)
	}
	dir := t.TempDir()
	encodings := []struct {
		format string
		data   []byte
	}{{"binary", bin.Bytes()}, {"text", text.Bytes()}, {"msr", msr.Bytes()}}
	for _, enc := range encodings {
		if err := os.WriteFile(filepath.Join(dir, "t."+enc.format), enc.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	rearranged := regexp.MustCompile(`\nrearranged ([0-9]+) blocks \(organ-pipe placement\)\n\nrearranged layout \(scan\):\n  requests:             300\n`)
	for _, rearrange := range []int{0, 50} {
		var want string
		for _, enc := range encodings {
			var out bytes.Buffer
			if err := run(context.Background(), &out, filepath.Join(dir, "t."+enc.format), "toshiba", "scan", "organ-pipe", rearrange); err != nil {
				t.Fatalf("%s, -rearrange %d: %v", enc.format, rearrange, err)
			}
			if want == "" {
				want = out.String()
			}
			if out.String() != want {
				t.Errorf("%s, -rearrange %d: report differs from binary's\n%s\nwant\n%s", enc.format, rearrange, out.String(), want)
			}
		}
		if !strings.HasPrefix(want, "original layout (scan):\n  requests:             300\n") {
			t.Errorf("-rearrange %d: report does not open with the first replay\n%s", rearrange, want)
		}
		m := rearranged.FindStringSubmatch(want)
		switch {
		case rearrange == 0 && m != nil:
			t.Errorf("-rearrange 0 rearranged\n%s", want)
		case rearrange > 0 && (m == nil || m[1] == "0"):
			t.Errorf("-rearrange %d: no non-zero \"rearranged N blocks\" line followed by a second report\n%s", rearrange, want)
		}
	}
}

func TestRunRejects(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := os.WriteFile(path, []byte("what is this\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, trace string
		rearrange   int
		want        string
	}{
		{"no trace", "", 0, "-trace is required"},
		{"negative rearrange", path, -1, "-rearrange -1: a negative count"},
	} {
		err := run(context.Background(), io.Discard, c.trace, "toshiba", "scan", "organ-pipe", c.rearrange)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
	if err := run(context.Background(), io.Discard, path, "toshiba", "scan", "organ-pipe", 0); !errors.Is(err, tracein.ErrUnknownFormat) {
		t.Errorf("a file no format matches: error %v, want tracein.ErrUnknownFormat", err)
	}
}
