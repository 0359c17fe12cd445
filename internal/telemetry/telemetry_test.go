package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func reqEvent() *Event {
	return &Event{Kind: KindRequest, Write: true, TimeMS: 1234.5, Part: 1, Block: 77}
}

func spanEvent() *Event {
	return &Event{
		Kind: KindSpan, Write: false, Internal: true, Redirected: true, BufferHit: false,
		Orig: 4096, Sector: 16, Count: 16, QueueDepth: 3, SeekDist: 120,
		ArriveMS: 100, DispatchMS: 101.25, SeekMS: 7.5, RotMS: 8.3,
		TransferMS: 1.9, CompleteMS: 118.95,
	}
}

// Every JSONL line must be valid JSON with the documented keys.
func TestAppendJSONLParseable(t *testing.T) {
	b := AppendJSONL(nil, reqEvent())
	b = AppendJSONL(b, spanEvent())
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}

	var req map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &req); err != nil {
		t.Fatalf("request line is not JSON: %v\n%s", err, lines[0])
	}
	if req["k"] != "req" || req["t"] != 1234.5 || req["w"] != 1.0 ||
		req["part"] != 1.0 || req["blk"] != 77.0 {
		t.Errorf("request fields wrong: %v", req)
	}

	var span map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &span); err != nil {
		t.Fatalf("span line is not JSON: %v\n%s", err, lines[1])
	}
	want := map[string]float64{
		"w": 0, "int": 1, "orig": 4096, "sec": 16, "n": 16, "qd": 3,
		"arr": 100, "disp": 101.25, "seek": 7.5, "rot": 8.3,
		"xfer": 1.9, "done": 118.95, "dist": 120, "redir": 1, "bh": 0,
	}
	if span["k"] != "span" {
		t.Errorf("span kind = %v", span["k"])
	}
	for k, v := range want {
		if span[k] != v {
			t.Errorf("span[%q] = %v, want %v", k, span[k], v)
		}
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi of no live sinks should be nil")
	}
	var a, b int
	sa := SinkFunc(func(*Event) { a++ })
	if s := Multi(nil, sa); s == nil {
		t.Error("Multi(nil, sink) should be the sink")
	} else {
		s.Event(&Event{})
	}
	if a != 1 {
		t.Errorf("single sink saw %d events, want 1", a)
	}
	m := Multi(sa, nil, SinkFunc(func(*Event) { b++ }))
	m.Event(&Event{})
	if a != 2 || b != 1 {
		t.Errorf("fan-out counts a=%d b=%d, want 2, 1", a, b)
	}
}

// With spans off the collector still counts events but buffers nothing.
func TestCollectorSpansOff(t *testing.T) {
	c := NewCollector("job", Options{})
	c.Event(reqEvent())
	c.Event(spanEvent())
	if c.Events() != 2 {
		t.Errorf("Events = %d, want 2", c.Events())
	}
	if len(c.TraceJSONL()) != 0 {
		t.Errorf("trace buffered %d bytes with spans off", len(c.TraceJSONL()))
	}
}

// Code holding telemetry.FromContext's result calls these without a
// nil guard; the nil collector must read as "everything off".
func TestNilCollectorAccessors(t *testing.T) {
	var c *Collector
	if c.SpansEnabled() || c.MetricsEnabled() || c.Metrics() != nil {
		t.Errorf("nil collector reports spans=%v metrics=%v, want both off",
			c.SpansEnabled(), c.MetricsEnabled())
	}
	c.SetEngineEvents(42) // must not panic
}

// Freeze reads each func-backed metric once, drops the registry, and
// MetricsSnapshots then returns what it read; a collector that never had
// a registry yields no snapshot.
func TestFreezeDropsRegistry(t *testing.T) {
	c := NewCollector("j1", Options{Metrics: true})
	reads := int64(0)
	c.Metrics().CounterFunc("reads", func() int64 { reads++; return reads })
	c.Metrics().GaugeFunc("g", func() float64 { return 2 })
	c.Freeze()
	c.Freeze() // idempotent
	if c.Metrics() != nil || c.MetricsEnabled() {
		t.Fatal("the collector still holds its registry after Freeze")
	}
	cols := []*Collector{c, nil, NewCollector("plain", Options{})}
	for i := 0; i < 2; i++ {
		jobs := MetricsSnapshots(cols)
		if len(jobs) != 1 || jobs[0].Job != "j1" || len(jobs[0].Metrics) != 2 ||
			jobs[0].Metrics[0].Value != 1 || jobs[0].Metrics[1].Value != 2 {
			t.Fatalf("snapshots %+v, want j1's reads=1 and g=2", jobs)
		}
	}
	if reads != 1 {
		t.Errorf("the func-backed metric was read %d times, want once", reads)
	}
}

// The sampler's columns are the registry's counters and gauges, in
// registration order; histograms have none.
func TestCollectorSampler(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCollector("j1", Options{SamplePeriodMS: 10})
	if !c.MetricsEnabled() {
		t.Fatal("sampling did not give the collector a registry")
	}
	reg := c.Metrics()
	n := int64(0)
	reg.CounterFunc("n", func() int64 { n++; return n })
	reg.Histogram("lat_ms", metrics.HistogramOpts{}).Record(1)
	reg.GaugeFunc("t", eng.Now)
	c.StartSampler(eng)
	eng.RunUntil(35)
	if c.Samples() != 3 {
		t.Fatalf("Samples = %d, want 3 (ticks at 10, 20, 30)", c.Samples())
	}
	if got, want := c.CSVHeader(), "job,t_ms,n,t\n"; got != want {
		t.Errorf("header %q, want %q", got, want)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []*Collector{c}); err != nil {
		t.Fatal(err)
	}
	rows, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("parsed %d rows, want 3", len(rows))
	}
	for i, r := range rows {
		wantT := float64(10 * (i + 1))
		if r.Job != "j1" || r.TimeMS != wantT ||
			r.Values["n"] != float64(i+1) || r.Values["t"] != wantT {
			t.Errorf("row %d = %+v, want t=%g n=%d", i, r, wantT, i+1)
		}
	}
}

// WriteCSV re-emits the header only when the column set changes.
func TestWriteCSVHeaderPerSection(t *testing.T) {
	eng := sim.NewEngine()
	mk := func(name string, gauges ...string) *Collector {
		c := NewCollector(name, Options{SamplePeriodMS: 10})
		for _, g := range gauges {
			v := float64(len(g))
			c.Metrics().GaugeFunc(g, func() float64 { return v })
		}
		c.StartSampler(eng)
		return c
	}
	a := mk("a", "x")
	b := mk("b", "x")
	d := mk("d", "x", "y")
	eng.RunUntil(15)

	var buf bytes.Buffer
	if err := WriteCSV(&buf, []*Collector{a, nil, b, d}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.Count(out, "job,t_ms"); got != 2 {
		t.Errorf("emitted %d headers, want 2 (shared then changed):\n%s", got, out)
	}
	rows, err := ReadCSV(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Errorf("parsed %d rows, want 3", len(rows))
	}
	if v, ok := rows[2].Values["y"]; !ok || v != 1 {
		t.Errorf("section switch lost column y: %+v", rows[2])
	}
}

func TestReadCSVMalformed(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"data before header", "j,10,1\n", "before any header"},
		{"bad header", "job,nope,x\n", "malformed header"},
		{"field count", "job,t_ms,x\nj,10\n", "fields"},
		{"bad time", "job,t_ms,x\nj,zebra,1\n", "bad time"},
		{"bad value", "job,t_ms,x\nj,10,zebra\n", "bad value"},
		{"unterminated quote", "job,t_ms,\"x{a=\"\"1\"\"}\nj,10,1\n", "line 1: extraneous or missing \" in quoted-field"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// Labelled names carry quotes, and two labels a comma: the header quotes
// them, and ReadCSV reads them back under the registry's names.
func TestCSVQuotedNamesRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCollector(`shared,"odd"`, Options{SamplePeriodMS: 10})
	two := []metrics.Label{{Key: "fs", Value: "sys"}, {Key: "cache", Value: "data"}}
	c.Metrics().CounterFunc("cache_hits", func() int64 { return 7 }, two...)
	c.Metrics().GaugeFunc("driver_queue_len", func() float64 { return 3 }, metrics.Label{Key: "disk", Value: "2"})
	c.StartSampler(eng)
	eng.RunUntil(15)
	want := "job,t_ms,\"cache_hits{cache=\"\"data\"\",fs=\"\"sys\"\"}\",\"driver_queue_len{disk=\"\"2\"\"}\"\n"
	if got := c.CSVHeader(); got != want {
		t.Errorf("header %q, want %q", got, want)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []*Collector{c}); err != nil {
		t.Fatal(err)
	}
	rows, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("parsed %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.Job != `shared,"odd"` || r.Values[`cache_hits{cache="data",fs="sys"}`] != 7 || r.Values[`driver_queue_len{disk="2"}`] != 3 {
		t.Errorf("row %+v lost a quoted cell", r)
	}
}

func TestContext(t *testing.T) {
	if FromContext(nil) != nil || FromContext(context.Background()) != nil {
		t.Error("FromContext without a collector should be nil")
	}
	c := NewCollector("x", Options{})
	if FromContext(NewContext(context.Background(), c)) != c {
		t.Error("FromContext did not return the injected collector")
	}
}

// TagDisk stamps the member index into events passing through it (the
// volume layer wraps each member's sink this way), restores the event
// afterwards (emitters reuse one Event struct), and the "disk" JSONL
// key appears only on tagged events so single-disk traces are
// byte-identical to before the field existed.
func TestTagDiskJSONL(t *testing.T) {
	if TagDisk(3, nil) != nil {
		t.Error("TagDisk of a nil sink should be nil")
	}
	e := reqEvent()
	var tagged []byte
	sink := TagDisk(3, SinkFunc(func(e *Event) { tagged = AppendJSONL(nil, e) }))
	sink.Event(e)
	if e.Disk != 0 {
		t.Errorf("event not restored after tagging: Disk = %d", e.Disk)
	}
	var m map[string]any
	if err := json.Unmarshal(bytes.TrimSuffix(tagged, []byte("\n")), &m); err != nil {
		t.Fatalf("tagged line is not JSON: %v\n%s", err, tagged)
	}
	if m["disk"] != 3.0 {
		t.Errorf(`tagged line "disk" = %v, want 3`, m["disk"])
	}
	untagged := AppendJSONL(nil, e)
	if bytes.Contains(untagged, []byte("disk")) {
		t.Errorf("untagged line carries a disk key: %s", untagged)
	}
}
