package tracein

import (
	"bufio"
	"bytes"
	"io"
	"math"

	"repro/internal/trace"
)

// SNIA MSR-Cambridge block traces are CSV with seven fields per line:
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// Timestamp is a Windows FILETIME (100 ns ticks since 1601), Type is
// "Read" or "Write", Offset and Size are bytes, ResponseTime is the
// traced machine's own service time (ignored here — the simulated disk
// supplies its own timing). The parser is streaming, rebases the first
// record to t=0, quantizes byte ranges to Options.BlockBytes blocks,
// and maps DiskNumber to the record's partition.

// filetimeTicksPerMS converts FILETIME 100 ns ticks to milliseconds.
const filetimeTicksPerMS = 10_000

// maxRequestBlocks bounds how many blocks one traced request may span
// (1 Mi blocks = 8 GiB at the default block size). A size field beyond
// it is treated as corrupt rather than expanded — a single line must
// not be able to make the parser emit unbounded output.
const maxRequestBlocks = 1 << 20

// msrFields is the column count of an MSR-Cambridge CSV line.
const msrFields = 7

// ParseMSR streams an MSR-Cambridge CSV trace, emitting one record per
// covered block. A leading header line (non-numeric first field) is
// skipped. Timestamps are rebased so the first event is at 0 ms;
// a timestamp earlier than its predecessor fails with ErrNonMonotonic
// (equal timestamps are fine — MSR traces batch events at tick
// granularity). Lines are parsed in the scanner's buffer, so a line
// costs no allocation; a field is copied out only to quote it in an
// error.
func ParseMSR(r io.Reader, o Options, emit EmitFunc) error {
	o = o.withDefaults()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	first := true
	var baseTicks, prevTicks int64
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var f [msrFields][]byte
		if !splitFields(line, ',', f[:]) {
			return parseErr(FormatMSR, lineNo, ErrTruncated, "want %d comma-separated fields, got %q", msrFields, string(line))
		}
		ticks, ok := parseInt(bytes.TrimSpace(f[0]))
		if !ok {
			if lineNo == 1 {
				continue // header line
			}
			return parseErr(FormatMSR, lineNo, ErrBadField, "timestamp %q", string(f[0]))
		}
		disk, ok := parseInt(bytes.TrimSpace(f[2]))
		if !ok {
			return parseErr(FormatMSR, lineNo, ErrBadField, "disk number %q", string(f[2]))
		}
		if disk < 0 || disk > 255 {
			return parseErr(FormatMSR, lineNo, ErrOutOfRange, "disk number %d", disk)
		}
		var write bool
		switch typ := bytes.TrimSpace(f[3]); {
		case bytes.EqualFold(typ, []byte("Read")):
		case bytes.EqualFold(typ, []byte("Write")):
			write = true
		default:
			return parseErr(FormatMSR, lineNo, ErrBadField, "request type %q", string(typ))
		}
		offset, ok := parseInt(bytes.TrimSpace(f[4]))
		if !ok {
			return parseErr(FormatMSR, lineNo, ErrBadField, "offset %q", string(f[4]))
		}
		if offset < 0 {
			return parseErr(FormatMSR, lineNo, ErrOutOfRange, "offset %d", offset)
		}
		size, ok := parseInt(bytes.TrimSpace(f[5]))
		if !ok {
			return parseErr(FormatMSR, lineNo, ErrBadField, "size %q", string(f[5]))
		}
		if size < 0 || size/int64(o.BlockBytes) > maxRequestBlocks {
			return parseErr(FormatMSR, lineNo, ErrOutOfRange, "size %d", size)
		}
		if offset > math.MaxInt64-size {
			return parseErr(FormatMSR, lineNo, ErrOutOfRange, "offset %d + size %d overflows", offset, size)
		}
		if first {
			baseTicks, prevTicks = ticks, ticks
			first = false
		}
		if ticks < prevTicks {
			return parseErr(FormatMSR, lineNo, ErrNonMonotonic, "timestamp %d after %d", ticks, prevTicks)
		}
		prevTicks = ticks
		timeMS := float64(ticks-baseTicks) / filetimeTicksPerMS
		if err := emitRange(timeMS, write, int(disk), offset, size, o.BlockBytes, emit); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return parseErr(FormatMSR, lineNo+1, ErrTruncated, "%v", err)
	}
	return nil
}

// parseInt parses b as strconv.ParseInt(string(b), 10, 64) does — an
// optional sign, then one or more decimal digits, within int64 — and
// reports false wherever ParseInt would fail. It does not allocate.
func parseInt(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	const limit = 1 << 63 // |math.MinInt64|
	var n uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 || n > (limit-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		return -int64(n), true // n == limit wraps to math.MinInt64
	}
	if n == limit {
		return 0, false
	}
	return int64(n), true
}

// emitRange quantizes a byte range to blocks, emitting one record per
// covered block. A zero-size request still touches the block at its
// offset (how the traced kernel would issue a probe).
func emitRange(timeMS float64, write bool, part int, offset, size int64, blockBytes int, emit EmitFunc) error {
	bb := int64(blockBytes)
	first := offset / bb
	last := first
	if size > 0 {
		last = (offset + size - 1) / bb
	}
	for b := first; b <= last; b++ {
		if err := emit(trace.Record{TimeMS: timeMS, Write: write, Part: part, Block: b}); err != nil {
			return err
		}
	}
	return nil
}

// splitFields splits line on sep into exactly len(out) fields without
// allocating; it reports false when the field count differs.
func splitFields(line []byte, sep byte, out [][]byte) bool {
	n := 0
	for {
		i := bytes.IndexByte(line, sep)
		if i < 0 {
			break
		}
		if n >= len(out)-1 {
			return false // too many fields
		}
		out[n] = line[:i]
		n++
		line = line[i+1:]
	}
	out[n] = line
	return n == len(out)-1
}

// looksMSR reports whether a line parses as an MSR CSV event or header:
// seven comma-separated fields whose fourth is Read/Write (events) or
// whose first is non-numeric (header — "Timestamp,Hostname,...").
func looksMSR(line []byte) bool {
	var f [msrFields][]byte
	if !splitFields(bytes.TrimSpace(line), ',', f[:]) {
		return false
	}
	typ := bytes.TrimSpace(f[3])
	if bytes.EqualFold(typ, []byte("Read")) || bytes.EqualFold(typ, []byte("Write")) {
		return true
	}
	_, ok := parseInt(bytes.TrimSpace(f[0]))
	return !ok // seven fields with a non-numeric timestamp: header
}
