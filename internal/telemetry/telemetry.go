// Package telemetry is the simulation stack's observability layer: a
// deterministic, low-overhead event stream describing every request's
// lifecycle through the driver, plus a periodic sampler that turns live
// model state into a time series.
//
// The design mirrors the paper's own instrumentation (Section 4.1.5
// measured every request's seek, queue, and service time), but exposes
// it as data instead of end-of-run aggregates:
//
//   - The driver emits Events into a pluggable Sink: one KindRequest
//     event per file system block request (the generalisation of the
//     old driver tap) and one KindSpan event per completed device
//     operation, carrying the request's whole lifecycle — arrival,
//     queue exit (dispatch), seek, rotation, transfer, completion — in
//     simulated time.
//   - A Collector buffers one job's stream in memory as JSONL and its
//     sampler output as CSV rows: every tick, one row of the current
//     values of the counters and gauges in the job's metrics registry. Jobs on the parallel runner each own
//     a private Collector; concatenating buffers in job order makes the
//     combined output byte-identical for any worker count.
//
// Determinism rules: all times are simulated time, all values derive
// from model state, and encoding uses strconv (shortest round-trip
// floats) — never maps, wall clocks, or pointer identities. A nil sink
// costs one pointer comparison per request; nothing is formatted or
// allocated unless a sink is attached.
package telemetry

import (
	"strconv"
)

// Kind discriminates event stream entries.
type Kind uint8

const (
	// KindRequest is one file system block request as issued to the
	// driver, before any address translation: the event the old
	// driver tap reported.
	KindRequest Kind = iota + 1
	// KindSpan is one completed device operation with its full
	// lifecycle timings.
	KindSpan
	// KindFault is one fault-handling action taken by the driver: a
	// retry of a transient error, a bad-block remap, an unrecoverable
	// failure, or a simulated power loss.
	KindFault
)

// Event is one entry of the telemetry stream. The driver reuses a
// single Event value across emissions, so sinks must copy the fields
// they retain and must not hold the pointer past the call.
type Event struct {
	Kind Kind

	// Disk tags events of one member disk of a multi-disk volume,
	// stored 1-based so the zero value means "untagged" (single-disk
	// stacks). TagDisk sets it; the JSONL encoding emits the 0-based
	// disk index, and omits the key entirely when untagged so
	// single-disk streams are byte-identical to before the field
	// existed.
	Disk int

	// Write is the request direction (both kinds).
	Write bool

	// KindRequest fields: arrival time and the pre-translation
	// partition-relative address.
	TimeMS float64
	Part   int
	Block  int64

	// KindSpan fields.
	//
	// Internal marks driver-generated operations (block movement and
	// block table writes); Redirected marks requests the block table
	// sent to the reserved region; BufferHit marks reads served from
	// the drive's read-ahead buffer.
	Internal   bool
	Redirected bool
	BufferHit  bool
	// Orig is the original (pre-redirect) physical sector of the
	// containing block; Sector is the serviced physical sector.
	Orig   int64
	Sector int64
	// Count is the request size in sectors.
	Count int
	// QueueDepth is the number of operations ahead of this one
	// (queued plus in service) when it entered the device queue.
	QueueDepth int
	// SeekDist is the head movement in cylinders.
	SeekDist int
	// Lifecycle timestamps and service components, all in simulated
	// milliseconds: the request arrived at ArriveMS, left the queue at
	// DispatchMS, then spent SeekMS seeking, RotMS in rotational
	// latency, and TransferMS transferring, completing at CompleteMS.
	ArriveMS   float64
	DispatchMS float64
	SeekMS     float64
	RotMS      float64
	TransferMS float64
	CompleteMS float64

	// KindFault fields: the fault class reported by the device
	// ("transient", "media", "crash"), the driver's response ("retry",
	// "remap", "fail", "crash"), and which service attempt of the
	// operation this was (0 = first issue). Sector, Count, Write, and
	// TimeMS are shared with the other kinds.
	Class   string
	Action  string
	Attempt int
}

// Sink receives telemetry events. Implementations are called on the
// simulation goroutine and must not block; they must copy any data
// they retain (the *Event is reused by the emitter).
type Sink interface {
	Event(e *Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(e *Event)

// Event implements Sink.
func (f SinkFunc) Event(e *Event) { f(e) }

// Multi fans events out to several sinks in order. Nil sinks are
// skipped, so callers can compose optional consumers without checks.
func Multi(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiSink(live)
}

type multiSink []Sink

func (m multiSink) Event(e *Event) {
	for _, s := range m {
		s.Event(e)
	}
}

// AppendJSONL appends the one-line JSON encoding of e (with trailing
// newline) to b and returns the extended slice. The encoding is
// deterministic: fixed key order, shortest round-trip floats, booleans
// as 0/1.
func AppendJSONL(b []byte, e *Event) []byte {
	switch e.Kind {
	case KindRequest:
		b = append(b, `{"k":"req","t":`...)
		b = appendFloat(b, e.TimeMS)
		b = append(b, `,"w":`...)
		b = appendBool(b, e.Write)
		b = append(b, `,"part":`...)
		b = strconv.AppendInt(b, int64(e.Part), 10)
		b = append(b, `,"blk":`...)
		b = strconv.AppendInt(b, e.Block, 10)
	case KindSpan:
		b = append(b, `{"k":"span","w":`...)
		b = appendBool(b, e.Write)
		b = append(b, `,"int":`...)
		b = appendBool(b, e.Internal)
		b = append(b, `,"orig":`...)
		b = strconv.AppendInt(b, e.Orig, 10)
		b = append(b, `,"sec":`...)
		b = strconv.AppendInt(b, e.Sector, 10)
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, int64(e.Count), 10)
		b = append(b, `,"qd":`...)
		b = strconv.AppendInt(b, int64(e.QueueDepth), 10)
		b = append(b, `,"arr":`...)
		b = appendFloat(b, e.ArriveMS)
		b = append(b, `,"disp":`...)
		b = appendFloat(b, e.DispatchMS)
		b = append(b, `,"seek":`...)
		b = appendFloat(b, e.SeekMS)
		b = append(b, `,"rot":`...)
		b = appendFloat(b, e.RotMS)
		b = append(b, `,"xfer":`...)
		b = appendFloat(b, e.TransferMS)
		b = append(b, `,"done":`...)
		b = appendFloat(b, e.CompleteMS)
		b = append(b, `,"dist":`...)
		b = strconv.AppendInt(b, int64(e.SeekDist), 10)
		b = append(b, `,"redir":`...)
		b = appendBool(b, e.Redirected)
		b = append(b, `,"bh":`...)
		b = appendBool(b, e.BufferHit)
	case KindFault:
		b = append(b, `{"k":"fault","t":`...)
		b = appendFloat(b, e.TimeMS)
		b = append(b, `,"w":`...)
		b = appendBool(b, e.Write)
		b = append(b, `,"sec":`...)
		b = strconv.AppendInt(b, e.Sector, 10)
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, int64(e.Count), 10)
		b = append(b, `,"class":"`...)
		b = append(b, e.Class...)
		b = append(b, `","act":"`...)
		b = append(b, e.Action...)
		b = append(b, `","try":`...)
		b = strconv.AppendInt(b, int64(e.Attempt), 10)
	default:
		b = append(b, `{"k":"unknown"`...)
	}
	if e.Disk > 0 {
		b = append(b, `,"disk":`...)
		b = strconv.AppendInt(b, int64(e.Disk-1), 10)
	}
	return append(b, '}', '\n')
}

// TagDisk wraps a sink so every event passing through carries the given
// 0-based disk index. A volume wraps its shared sink once per member so
// the merged stream stays attributable. The tag is restored to the
// event's prior value after the inner sink returns, because emitters
// reuse one Event value across sinks.
func TagDisk(disk int, s Sink) Sink {
	if s == nil {
		return nil
	}
	return SinkFunc(func(e *Event) {
		prev := e.Disk
		e.Disk = disk + 1
		s.Event(e)
		e.Disk = prev
	})
}

func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, '1')
	}
	return append(b, '0')
}
