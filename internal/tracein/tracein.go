// Package tracein ingests block-request traces from external and native
// formats and turns them into simulated load: streaming parsers for
// SNIA MSR-Cambridge CSV and blkparse-style text plus the native trace
// formats (closing the loop with cmd/tracegen and internal/trace), a
// scaler that time-compresses and multiplexes address-shifted copies to
// emulate heavy traffic, and a replayer that drives any
// driver.BlockDevice with the result in open-loop (timestamp-faithful)
// or closed-loop (think-time) mode.
//
// The source paper's evaluation is trace-driven; TraceTracker frames
// the reconstruction problem this package solves — turning captured
// block traces back into faithful simulated load. Every parser is
// streaming (constant memory for arbitrarily long inputs) and fails
// with typed errors that identify the offending line, so malformed
// real-world captures are diagnosed rather than silently mangled.
package tracein

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/trace"
)

// Format identifies a trace encoding.
type Format int

const (
	// FormatUnknown is returned by Detect when no parser claims the
	// input.
	FormatUnknown Format = iota
	// FormatBinary is the native compact binary encoding
	// (trace.WriteBinary, tracegen -format binary).
	FormatBinary
	// FormatText is the native line encoding (trace.WriteText,
	// tracegen -format text): "<timeMS> <R|W> <part> <block>".
	FormatText
	// FormatMSR is SNIA MSR-Cambridge CSV:
	// "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime"
	// with the timestamp in Windows 100 ns ticks and offset/size in
	// bytes.
	FormatMSR
	// FormatBlkparse is blkparse-style text: one event per line,
	// "maj,min cpu seq time pid action rwbs sector + sectors [proc]".
	FormatBlkparse
)

// String names the format for errors.
func (f Format) String() string {
	switch f {
	case FormatBinary:
		return "binary"
	case FormatText:
		return "text"
	case FormatMSR:
		return "msr"
	case FormatBlkparse:
		return "blkparse"
	}
	return "unknown"
}

// Typed parse failures, matchable with errors.Is through the wrapping
// *ParseError.
var (
	// ErrUnknownFormat means Detect could not attribute the input to
	// any parser.
	ErrUnknownFormat = errors.New("tracein: unrecognized trace format")
	// ErrTruncated means the input ended mid-record or a line is
	// missing fields.
	ErrTruncated = errors.New("tracein: truncated input")
	// ErrBadField means a field failed to parse (non-numeric offset,
	// unknown request type, ...).
	ErrBadField = errors.New("tracein: malformed field")
	// ErrOutOfRange means a numeric field is outside its valid range
	// (negative offset or size, partition beyond the format's limit).
	ErrOutOfRange = errors.New("tracein: value out of range")
	// ErrNonMonotonic means a record's timestamp went backwards; the
	// replayer needs arrivals in time order.
	ErrNonMonotonic = errors.New("tracein: non-monotonic timestamp")
)

// ParseError locates a parse failure: the format being parsed, the
// 1-based line (or record) number, and the underlying typed error.
type ParseError struct {
	Format Format
	Line   int
	Detail string
	Err    error
}

// Error renders the failure with its location.
func (e *ParseError) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("tracein: %s line %d: %v", e.Format, e.Line, e.Err)
	}
	return fmt.Sprintf("tracein: %s line %d: %s: %v", e.Format, e.Line, e.Detail, e.Err)
}

// Unwrap exposes the typed cause for errors.Is.
func (e *ParseError) Unwrap() error { return e.Err }

func parseErr(f Format, line int, err error, detail string, args ...any) *ParseError {
	return &ParseError{Format: f, Line: line, Err: err, Detail: fmt.Sprintf(detail, args...)}
}

// Options configures parsing.
type Options struct {
	// BlockBytes is the file system block size the byte- and
	// sector-addressed formats (MSR, blkparse) are quantized to; zero
	// selects 8192, the simulated stack's block size. A request
	// spanning several blocks emits one record per covered block at
	// the request's timestamp, which is how the simulated driver
	// would see it (physio splits raw requests the same way).
	BlockBytes int
}

func (o Options) withDefaults() Options {
	if o.BlockBytes <= 0 {
		o.BlockBytes = 8192
	}
	return o
}

// EmitFunc receives one parsed record; returning an error aborts the
// parse with that error.
type EmitFunc func(trace.Record) error

// Detect sniffs the format from the first bytes of the input. It needs
// at most the first line (or the 4-byte binary magic).
func Detect(prefix []byte) Format {
	if len(prefix) >= 4 &&
		uint32(prefix[0])<<24|uint32(prefix[1])<<16|uint32(prefix[2])<<8|uint32(prefix[3]) == trace.Magic {
		return FormatBinary
	}
	// Take the first non-empty line.
	line := prefix
	for len(line) > 0 && (line[0] == '\n' || line[0] == '\r') {
		line = line[1:]
	}
	for i, b := range line {
		if b == '\n' {
			line = line[:i]
			break
		}
	}
	if len(line) == 0 {
		return FormatUnknown
	}
	if looksMSR(line) {
		return FormatMSR
	}
	if looksBlkparse(string(line)) {
		return FormatBlkparse
	}
	if looksNativeText(string(line)) {
		return FormatText
	}
	return FormatUnknown
}

// Parse streams the input through the parser for the given format.
// FormatUnknown auto-detects from the stream's first bytes.
func Parse(r io.Reader, f Format, o Options, emit EmitFunc) error {
	if f == FormatUnknown {
		br := bufio.NewReader(r)
		prefix, _ := br.Peek(512)
		f = Detect(prefix)
		if f == FormatUnknown {
			return ErrUnknownFormat
		}
		r = br
	}
	switch f {
	case FormatBinary:
		return parseNativeBinary(r, emit)
	case FormatText:
		return parseNativeText(r, emit)
	case FormatMSR:
		return ParseMSR(r, o, emit)
	case FormatBlkparse:
		return ParseBlkparse(r, o, emit)
	}
	return ErrUnknownFormat
}

// ReadAll parses the whole input into memory.
func ReadAll(r io.Reader, f Format, o Options) ([]trace.Record, error) {
	var out []trace.Record
	if err := Parse(r, f, o, func(rec trace.Record) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadFile parses a trace file, auto-detecting the format when f is
// FormatUnknown, and reports which format was read.
func ReadFile(path string, f Format, o Options) ([]trace.Record, Format, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, FormatUnknown, err
	}
	defer file.Close()
	if f == FormatUnknown {
		br := bufio.NewReader(file)
		prefix, _ := br.Peek(512)
		f = Detect(prefix)
		if f == FormatUnknown {
			return nil, FormatUnknown, fmt.Errorf("%w: %s", ErrUnknownFormat, path)
		}
		recs, err := ReadAll(br, f, o)
		return recs, f, err
	}
	recs, err := ReadAll(file, f, o)
	return recs, f, err
}

// parseNativeBinary wraps the trace package's streaming binary decoder
// with this package's error taxonomy.
func parseNativeBinary(r io.Reader, emit EmitFunc) error {
	n := 0
	var emitErr error
	err := trace.ScanBinary(r, func(rec trace.Record) error {
		n++
		emitErr = emit(rec)
		return emitErr
	})
	if err == nil {
		return nil
	}
	if emitErr != nil {
		return emitErr // the callback's own error passes through unchanged
	}
	if errors.Is(err, trace.ErrBadHeader) {
		return parseErr(FormatBinary, 0, ErrBadField, "%v", err)
	}
	return parseErr(FormatBinary, n+1, ErrTruncated, "%v", err)
}

// parseNativeText wraps the trace package's streaming text decoder.
func parseNativeText(r io.Reader, emit EmitFunc) error {
	n := 0
	var emitErr error
	err := trace.ScanText(r, func(rec trace.Record) error {
		n++
		emitErr = emit(rec)
		return emitErr
	})
	if err == nil {
		return nil
	}
	if emitErr != nil {
		return emitErr
	}
	return parseErr(FormatText, n+1, ErrBadField, "%v", err)
}

// looksNativeText reports whether a line matches the native text
// format: "<float> <R|W> <int> <int>".
func looksNativeText(line string) bool {
	var t float64
	var dir string
	var part int
	var blk int64
	n, err := fmt.Sscanf(line, "%f %s %d %d", &t, &dir, &part, &blk)
	return err == nil && n == 4 && (dir == "R" || dir == "W")
}
