package telemetry

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Options selects what a Collector records. The zero value records
// only harness metrics (event counts); spans and sampling are opt-in.
type Options struct {
	// Spans enables capture of the request/span event stream.
	Spans bool
	// SamplePeriodMS, when positive, starts the periodic sampler at
	// this simulated-time interval. The sampler reads the job's
	// registry, so it gives the collector one as Metrics does.
	SamplePeriodMS float64
	// Metrics gives the collector a metrics.Registry, which the
	// experiment harness binds into the simulated stack (driver, sched,
	// cache, volume, fs, workload) once populate completes.
	Metrics bool
}

// Collector buffers one simulation job's telemetry: the JSONL event
// stream, the sampler's CSV rows, and end-of-run counters. A Collector
// belongs to a single job (a single simulation goroutine); the harness
// reads it only after the job completes, so no locking is needed —
// the runner's WaitGroup provides the happens-before edge.
type Collector struct {
	name string
	opts Options

	trace  []byte // encoded JSONL event stream
	events int64  // events observed (even when span capture is off)

	csvHeader []byte
	csv       []byte
	samples   int64

	engineEvents int64

	reg *metrics.Registry
	// snap is the registry's snapshot, taken by Freeze when the job
	// ended (non-nil, if empty); reg is nil from then on.
	snap []metrics.MetricSnap
}

// NewCollector returns a collector for the named job.
func NewCollector(name string, opts Options) *Collector {
	c := &Collector{name: name, opts: opts}
	if opts.Metrics || opts.SamplePeriodMS > 0 {
		c.reg = metrics.NewRegistry()
	}
	return c
}

// Metrics returns the job's metric registry, nil unless Options.Metrics
// or Options.SamplePeriodMS was set, and nil once the collector is
// frozen.
func (c *Collector) Metrics() *metrics.Registry {
	if c == nil {
		return nil
	}
	return c.reg
}

// MetricsEnabled reports whether the collector carries a registry. Safe
// on a nil collector, like FromContext's result.
func (c *Collector) MetricsEnabled() bool { return c != nil && c.reg != nil }

// Name returns the owning job's name.
func (c *Collector) Name() string { return c.name }

// SpansEnabled reports whether the event stream is being captured.
// Like MetricsEnabled and SetEngineEvents it is safe on a nil
// collector, so code holding FromContext's result needs no guard.
func (c *Collector) SpansEnabled() bool { return c != nil && c.opts.Spans }

// Event implements Sink: it counts the event and, when span capture is
// enabled, appends its JSONL encoding to the trace buffer.
func (c *Collector) Event(e *Event) {
	c.events++
	if c.opts.Spans {
		c.trace = AppendJSONL(c.trace, e)
	}
}

// Events returns how many events the collector observed.
func (c *Collector) Events() int64 { return c.events }

// TraceJSONL returns the buffered event stream (empty unless Spans).
func (c *Collector) TraceJSONL() []byte { return c.trace }

// StartSampler begins periodic sampling on the engine: one CSV column
// per counter and gauge of the job's registry, in registration order
// and under the registry's names, and one row per SamplePeriodMS of
// simulated time. The header is fixed here, so register every metric
// first. It is a no-op when sampling is disabled, already started, or
// the registry holds no counter or gauge. Call it only once the
// engine's event loop is driven by bounded RunUntil horizons (a
// self-scheduling sampler would keep a bare Run() alive forever).
func (c *Collector) StartSampler(eng *sim.Engine) {
	if c.opts.SamplePeriodMS <= 0 || c.csvHeader != nil {
		return
	}
	header := []byte("job,t_ms")
	c.reg.Each(func(m metrics.Metric) {
		if m.Kind() != metrics.KindHistogram {
			header = append(header, ',')
			header = appendCell(header, m.Name())
		}
	})
	if len(header) == len("job,t_ms") {
		return
	}
	c.csvHeader = append(header, '\n')
	eng.Every(c.opts.SamplePeriodMS, func() { c.sample(eng.Now()) })
}

// sample appends one CSV row of the registry's counters and gauges at
// simulated time nowMS.
func (c *Collector) sample(nowMS float64) {
	c.samples++
	c.csv = appendCell(c.csv, c.name)
	c.csv = append(c.csv, ',')
	c.csv = appendFloat(c.csv, nowMS)
	c.reg.Each(c.appendValue)
	c.csv = append(c.csv, '\n')
}

// appendValue is the sampler's visitor: one cell per counter and gauge.
func (c *Collector) appendValue(m metrics.Metric) {
	if m.Kind() != metrics.KindHistogram {
		c.csv = append(c.csv, ',')
		c.csv = appendFloat(c.csv, m.Value())
	}
}

// appendCell appends s as one CSV cell, quoted RFC 4180 style when it
// holds a comma, a quote or a line break — as a labelled registry name
// such as cache_hits{cache="data",fs="sys"} does.
func appendCell(b []byte, s string) []byte {
	if !strings.ContainsAny(s, ",\"\r\n") {
		return append(b, s...)
	}
	b = append(b, '"')
	b = append(b, strings.ReplaceAll(s, `"`, `""`)...)
	return append(b, '"')
}

// Samples returns the number of sampler rows recorded.
func (c *Collector) Samples() int64 { return c.samples }

// CSVHeader returns the sampler's header line ("" until sampling
// started).
func (c *Collector) CSVHeader() string { return string(c.csvHeader) }

// SamplesCSV returns the sampler's data rows (no header).
func (c *Collector) SamplesCSV() []byte { return c.csv }

// SetEngineEvents records the simulation engine's dispatched-event
// count at the end of the job.
func (c *Collector) SetEngineEvents(n int64) {
	if c != nil {
		c.engineEvents = n
	}
}

// EngineEvents returns the recorded engine event count.
func (c *Collector) EngineEvents() int64 { return c.engineEvents }

// Freeze takes the registry's snapshot and drops the registry. Every
// func-backed metric closes over its layer, so a registry kept until
// the end of the run keeps the job's whole stack alive with it; call
// Freeze when the job has finished. It is a no-op without a registry.
func (c *Collector) Freeze() {
	if c.reg != nil {
		c.snap = c.reg.Snapshot().Metrics
		c.reg = nil
	}
}

// ctxKey keys the collector in a context.
type ctxKey struct{}

// NewContext returns ctx carrying the collector. The experiment
// harness injects a per-job collector this way so job bodies need no
// new parameters.
func NewContext(ctx context.Context, c *Collector) context.Context {
	return context.WithValue(ctx, ctxKey{}, c)
}

// FromContext returns the collector carried by ctx, or nil.
func FromContext(ctx context.Context) *Collector {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(ctxKey{}).(*Collector)
	return c
}

// WriteTrace concatenates the collectors' event streams in order. With
// one collector per runner job in job order, the result is
// byte-identical for any worker count.
func WriteTrace(w io.Writer, cols []*Collector) error {
	for _, c := range cols {
		if c == nil {
			continue
		}
		if _, err := w.Write(c.TraceJSONL()); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV concatenates the collectors' sampler output in order,
// emitting a header line whenever it differs from the previous
// collector's (jobs with identical column sets share one header).
func WriteCSV(w io.Writer, cols []*Collector) error {
	prevHeader := ""
	for _, c := range cols {
		if c == nil || c.Samples() == 0 {
			continue
		}
		if h := c.CSVHeader(); h != prevHeader {
			if _, err := io.WriteString(w, h); err != nil {
				return err
			}
			prevHeader = h
		}
		if _, err := w.Write(c.SamplesCSV()); err != nil {
			return err
		}
	}
	return nil
}

// MetricsSnapshots returns each collector's registry snapshot in job
// order — the metrics analogue of WriteTrace/WriteCSV concatenation,
// and byte-identical for any worker count for the same reason. A
// collector not yet frozen is frozen here: the snapshot resolves
// func-backed metrics against live model state, so call this only
// after every job has completed. Collectors that never had a registry
// are skipped.
func MetricsSnapshots(cols []*Collector) []metrics.JobSnapshot {
	var out []metrics.JobSnapshot
	for _, c := range cols {
		if c == nil {
			continue
		}
		c.Freeze()
		if c.snap != nil {
			out = append(out, metrics.JobSnapshot{Job: c.name, Metrics: c.snap})
		}
	}
	return out
}

// SampleRow is one parsed sampler row.
type SampleRow struct {
	// Job names the simulation job the row belongs to.
	Job string
	// TimeMS is the sample's simulated time.
	TimeMS float64
	// Values maps metric name to sampled value.
	Values map[string]float64
}

// ReadCSV parses a sampler time series produced by WriteCSV, quoted
// cells included. Header lines (starting "job,t_ms") may appear
// anywhere and switch the column set for subsequent rows. It returns an
// error — never panics — on malformed input, naming the offending line.
func ReadCSV(r io.Reader) ([]SampleRow, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // each header sets its own width
	var cols []string       // metric names of the current section
	var rows []SampleRow
	for {
		fields, err := cr.Read()
		if err == io.EOF {
			break
		}
		var perr *csv.ParseError
		if errors.As(err, &perr) {
			return nil, fmt.Errorf("telemetry: line %d: %w", perr.StartLine, perr.Err)
		}
		if err != nil {
			return nil, fmt.Errorf("telemetry: reading CSV: %w", err)
		}
		line, _ := cr.FieldPos(0)
		if fields[0] == "job" {
			if len(fields) < 2 || fields[1] != "t_ms" {
				return nil, fmt.Errorf("telemetry: line %d: malformed header %q", line, strings.Join(fields, ","))
			}
			cols = fields[2:]
			continue
		}
		if cols == nil {
			return nil, fmt.Errorf("telemetry: line %d: data row before any header", line)
		}
		if len(fields) != len(cols)+2 {
			return nil, fmt.Errorf("telemetry: line %d: %d fields, want %d", line, len(fields), len(cols)+2)
		}
		t, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: bad time %q", line, fields[1])
		}
		row := SampleRow{Job: fields[0], TimeMS: t, Values: make(map[string]float64, len(cols))}
		for i, name := range cols {
			v, err := strconv.ParseFloat(fields[i+2], 64)
			if err != nil {
				return nil, fmt.Errorf("telemetry: line %d: bad value %q for %s", line, fields[i+2], name)
			}
			row.Values[name] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}
