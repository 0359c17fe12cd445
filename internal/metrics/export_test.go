package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func sampleJobs() []JobSnapshot {
	r := NewRegistry()
	r.CounterFunc("driver_requests", func() int64 { return 1234 })
	r.GaugeFunc("volume_dead_members", func() float64 { return 1 })
	h := r.Histogram("driver_service_ms", HistogramOpts{}, Label{"disk", "0"})
	for _, v := range []float64{1.5, 2.5, 40} {
		h.Record(v)
	}
	r2 := NewRegistry()
	r2.CounterFunc("driver_requests", func() int64 { return 99 })
	return []JobSnapshot{
		{Job: "volume/disks-1", Metrics: r.Snapshot().Metrics},
		{Job: "volume/disks-4", Metrics: r2.Snapshot().Metrics},
	}
}

func TestJSONRoundTrip(t *testing.T) {
	jobs := sampleJobs()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Job != "volume/disks-1" || got[1].Job != "volume/disks-4" {
		t.Fatalf("round trip jobs = %+v", got)
	}
	if got[0].Metrics[0].Value != 1234 {
		t.Errorf("round trip counter = %g", got[0].Metrics[0].Value)
	}
	h := got[0].Metrics[2].Hist
	if h == nil || h.Count != 3 || h.Max != 40 {
		t.Fatalf("round trip histogram = %+v", h)
	}
	if q := h.Quantile(0.99); q != 40 {
		t.Errorf("round trip p99 = %g, want 40", q)
	}
	// Writing the parsed snapshot again reproduces the bytes — the
	// determinism contract the equivalence tests rely on.
	var buf2 bytes.Buffer
	if err := WriteJSON(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("JSON snapshot is not byte-stable across a read/write cycle")
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Error("malformed JSON did not error")
	}
	if _, err := ReadJSON(strings.NewReader(`{"schema":9,"jobs":[]}`)); err == nil {
		t.Error("unknown schema did not error")
	}
}

func TestWritePrometheus(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, sampleJobs()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE driver_requests counter\n",
		`driver_requests{job="volume/disks-1"} 1234`,
		`driver_requests{job="volume/disks-4"} 99`,
		"# TYPE volume_dead_members gauge\n",
		"# TYPE driver_service_ms summary\n",
		`driver_service_ms{job="volume/disks-1",disk="0",quantile="0.99"}`,
		`driver_service_ms{job="volume/disks-1",disk="0",quantile="0.999"}`,
		`driver_service_ms_sum{job="volume/disks-1",disk="0"} 44`,
		`driver_service_ms_count{job="volume/disks-1",disk="0"} 3`,
		"# TYPE driver_service_ms_max gauge\n",
		`driver_service_ms_max{job="volume/disks-1",disk="0"} 40`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
	// Family grouping: both jobs' driver_requests samples follow one
	// TYPE line, with no second TYPE for the family.
	if strings.Count(out, "# TYPE driver_requests counter") != 1 {
		t.Error("driver_requests family has duplicate TYPE lines")
	}
	i1 := strings.Index(out, `driver_requests{job="volume/disks-1"}`)
	i2 := strings.Index(out, `driver_requests{job="volume/disks-4"}`)
	it := strings.Index(out, "# TYPE volume_dead_members")
	if !(i1 < i2 && i2 < it) {
		t.Error("family samples are not grouped contiguously across jobs")
	}
}
