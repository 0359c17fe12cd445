package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the benchmark's own work: a build, a
// set-up probe, a child run, a runner job inside a child, a layer-driver
// batch. Spans are recorded from the benchmark's side of each call into
// the program (no program source is touched), kept in memory, and
// written once at exit.
type span struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent"` // 0 = no parent
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"` // since the benchmark started
	EndUS   int64          `json:"end_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id for use as a parent.
func (t *tracer) add(parent int, name string, start, end time.Time, attrs map[string]any) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		StartUS: start.Sub(t.t0).Microseconds(), EndUS: end.Sub(t.t0).Microseconds(),
		Attrs: attrs,
	})
	return id
}

// open starts a span whose end is set by close; children may name it
// as their parent in between.
func (t *tracer) open(parent int, name string) int {
	now := time.Now()
	return t.add(parent, name, now, now, nil)
}

func (t *tracer) close(id int) {
	t.spans[id-1].EndUS = time.Since(t.t0).Microseconds()
}

func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
