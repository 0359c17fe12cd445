package tracein

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rig"
	"repro/internal/trace"
)

// Fuzz targets for the trace parsers: arbitrary input must either
// parse or fail with this package's typed errors — never panic, never
// loop, and never emit unbounded output from a bounded input. CI runs
// these alongside FuzzParsePlan.

// fuzzEmit caps the records a fuzz input may produce, so a short input
// claiming a huge span can't turn the fuzzer into a memory test.
func fuzzEmit(count *int) EmitFunc {
	return func(trace.Record) error {
		*count++
		if *count > 1<<16 {
			return errors.New("fuzz: emit cap")
		}
		return nil
	}
}

// checkFuzzErr verifies a parse failure is one of the typed errors (or
// the emit cap), not an arbitrary failure mode.
func checkFuzzErr(t *testing.T, f Format, err error) {
	t.Helper()
	if err == nil {
		return
	}
	for _, want := range []error{ErrUnknownFormat, ErrTruncated, ErrBadField, ErrOutOfRange, ErrNonMonotonic} {
		if errors.Is(err, want) {
			return
		}
	}
	if err.Error() == "fuzz: emit cap" {
		return
	}
	t.Fatalf("%v parse failed with an untyped error: %v", f, err)
}

// FuzzParseTrace drives the auto-detecting entry point across all four
// formats.
func FuzzParseTrace(f *testing.F) {
	var bin, txt bytes.Buffer
	recs := []trace.Record{{TimeMS: 1.5, Write: true, Part: 0, Block: 42}}
	_ = trace.WriteBinary(&bin, recs)
	_ = trace.WriteText(&txt, recs)
	f.Add(bin.Bytes())
	f.Add(txt.Bytes())
	f.Add([]byte("Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n128166372003061629,usr,0,Read,16384,8192,100\n"))
	f.Add([]byte("8,0 1 1 0.000000000 1234 Q R 7077888 + 16 [fio]\n"))
	f.Add([]byte("garbage\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		err := Parse(bytes.NewReader(data), FormatUnknown, Options{}, fuzzEmit(&n))
		checkFuzzErr(t, FormatUnknown, err)
	})
}

// FuzzParseMSR hammers the MSR-Cambridge CSV parser directly and holds
// it to refParseMSR, a strconv reference: the same records, or the
// same error text, line number included.
func FuzzParseMSR(f *testing.F) {
	f.Add([]byte("128166372003061629,usr,0,Read,16384,8192,100\n"))
	f.Add([]byte("Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n1,h,0,Write,0,4096,1\n"))
	f.Add([]byte("1,h,0,Read,-1,4096,1\n"))
	f.Add([]byte("2,h,0,Read,0,4096,1\n1,h,0,Read,0,4096,1\n"))
	f.Add([]byte(" +7 ,h, 255 , wRITE ,9223372036854775807,0,\r\n-9223372036854775808,h,0,read,0,1,1\n"))
	f.Add([]byte("1,h,-0,Read,0,1,1\n2,h,0,Read,9223372036854775808,1,1\n"))
	f.Add([]byte("1,h,0,Read,0,1,1\n99999999999999999999,h,0,Read,0,1,1\n"))
	f.Add([]byte("1,h,256,Read,0,1,1\n"))
	f.Add([]byte("1,h,0,Read,0,1,1\n1,h,0x1,Read,0,1,1\n1,h,1_0,Read,0,1,1\n1,h,0,R\u00e9ad,0,1,1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		parse := func(p func(io.Reader, Options, EmitFunc) error) ([]trace.Record, error) {
			var recs []trace.Record
			err := p(bytes.NewReader(data), Options{}, func(r trace.Record) error {
				if len(recs) >= 1<<16 {
					return errors.New("fuzz: emit cap")
				}
				recs = append(recs, r)
				return nil
			})
			return recs, err
		}
		got, err := parse(ParseMSR)
		checkFuzzErr(t, FormatMSR, err)
		want, wantErr := parse(refParseMSR)
		if !slices.Equal(got, want) {
			t.Fatalf("ParseMSR emitted %d records, the reference %d; first difference at %d",
				len(got), len(want), firstDiff(got, want))
		}
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("ParseMSR: %v; the reference: %v", err, wantErr)
		}
	})
}

func firstDiff(a, b []trace.Record) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// refParseMSR is ParseMSR written over strings with strconv, as
// FuzzParseMSR's reference.
func refParseMSR(r io.Reader, o Options, emit EmitFunc) error {
	o = o.withDefaults()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo, first := 0, true
	var baseTicks, prevTicks int64
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		f := strings.Split(line, ",")
		if len(f) != msrFields {
			return parseErr(FormatMSR, lineNo, ErrTruncated, "want %d comma-separated fields, got %q", msrFields, line)
		}
		ticks, err := strconv.ParseInt(strings.TrimSpace(f[0]), 10, 64)
		if err != nil {
			if lineNo == 1 {
				continue
			}
			return parseErr(FormatMSR, lineNo, ErrBadField, "timestamp %q", f[0])
		}
		disk, err := strconv.Atoi(strings.TrimSpace(f[2]))
		if err != nil {
			return parseErr(FormatMSR, lineNo, ErrBadField, "disk number %q", f[2])
		}
		if disk < 0 || disk > 255 {
			return parseErr(FormatMSR, lineNo, ErrOutOfRange, "disk number %d", disk)
		}
		typ := strings.TrimSpace(f[3])
		write := strings.EqualFold(typ, "Write")
		if !write && !strings.EqualFold(typ, "Read") {
			return parseErr(FormatMSR, lineNo, ErrBadField, "request type %q", typ)
		}
		offset, err := strconv.ParseInt(strings.TrimSpace(f[4]), 10, 64)
		if err != nil {
			return parseErr(FormatMSR, lineNo, ErrBadField, "offset %q", f[4])
		}
		if offset < 0 {
			return parseErr(FormatMSR, lineNo, ErrOutOfRange, "offset %d", offset)
		}
		size, err := strconv.ParseInt(strings.TrimSpace(f[5]), 10, 64)
		if err != nil {
			return parseErr(FormatMSR, lineNo, ErrBadField, "size %q", f[5])
		}
		if size < 0 || size/int64(o.BlockBytes) > maxRequestBlocks {
			return parseErr(FormatMSR, lineNo, ErrOutOfRange, "size %d", size)
		}
		if offset > math.MaxInt64-size {
			return parseErr(FormatMSR, lineNo, ErrOutOfRange, "offset %d + size %d overflows", offset, size)
		}
		if first {
			baseTicks, prevTicks, first = ticks, ticks, false
		}
		if ticks < prevTicks {
			return parseErr(FormatMSR, lineNo, ErrNonMonotonic, "timestamp %d after %d", ticks, prevTicks)
		}
		prevTicks = ticks
		if err := emitRange(float64(ticks-baseTicks)/filetimeTicksPerMS, write, disk, offset, size, o.BlockBytes, emit); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return parseErr(FormatMSR, lineNo+1, ErrTruncated, "%v", err)
	}
	return nil
}

// FuzzParseBlkparse hammers the blkparse text parser directly.
func FuzzParseBlkparse(f *testing.F) {
	f.Add([]byte("8,0 1 1 0.000000000 1234 Q R 7077888 + 16 [fio]\n"))
	f.Add([]byte("CPU0 (8,0):\n8,0 0 3 0.25 77 Q WS 64 + 32 [app]\n"))
	f.Add([]byte("8,0 1 1 0.5 99 Q FN 0 + 0 [x]\n"))
	f.Add([]byte("8,0 1 1 2.0 99 Q R 32 + 16 [x]\n8,0 1 2 1.0 99 Q R 64 + 16 [x]\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		err := ParseBlkparse(bytes.NewReader(data), Options{}, fuzzEmit(&n))
		checkFuzzErr(t, FormatBlkparse, err)
	})
}

// FuzzScaleView holds the scaled-trace view to the materialised trace:
// over fuzzed records and scales, Len and At read exactly what Apply
// builds, and a replayer over the view rejects the same first record,
// with the same error, as a replayer over the materialised slice. Each
// 6 bytes of data are one record: a time step, a write bit and
// partition, and a signed block around the test device's partition
// size.
func FuzzScaleView(f *testing.F) {
	r := rig.MustNew(rig.Options{})
	blocks := r.PartitionBlocks(0)
	recs := []byte{1, 0, 10, 0, 0, 0, 2, 1, 0x20, 0x4e, 0, 0, 0, 6, 0xff, 0xff, 0, 0}
	f.Add(recs, uint8(0), 0.0, int64(0), int64(0))
	f.Add(recs, uint8(1), 1.0, int64(5), int64(10))
	f.Add(recs, uint8(1), 2.0, int64(5), blocks)
	f.Add(recs, uint8(4), 4.0, blocks/4, blocks)
	f.Add(recs, uint8(4), -1.0, int64(-7), int64(0))
	f.Add(recs, uint8(8), 0.5, int64(-blocks), int64(100))
	f.Add(recs, uint8(3), math.NaN(), int64(1), int64(-1))
	f.Fuzz(func(t *testing.T, data []byte, copies uint8, compress float64, shift, wrap int64) {
		var in []trace.Record
		var now float64
		for ; len(data) >= 6 && len(in) < 256; data = data[6:] {
			now += float64(data[0])
			in = append(in, trace.Record{
				TimeMS: now,
				Write:  data[1]&1 != 0,
				Part:   int(data[1]>>1) % 4,
				Block:  int64(int32(binary.LittleEndian.Uint32(data[2:]))) % (3 * blocks),
			})
		}
		s := Scale{Compress: compress, Copies: int(copies % 9), ShiftBlocks: shift, WrapBlocks: wrap}
		want := s.Apply(in)
		if n := s.Len(in); n != len(want) {
			t.Fatalf("%+v: Len %d, Apply built %d records", s, n, len(want))
		}
		for i, w := range want {
			got := s.At(in, i)
			if math.Float64bits(got.TimeMS) != math.Float64bits(w.TimeMS) ||
				got.Write != w.Write || got.Part != w.Part || got.Block != w.Block {
				t.Fatalf("%+v: At(%d) = %+v, Apply %+v", s, i, got, w)
			}
		}
		_, viewErr := NewReplayer(r.Eng, r.Driver, in, ReplayOptions{Scale: s})
		_, sliceErr := NewReplayer(r.Eng, r.Driver, want, ReplayOptions{})
		if (viewErr == nil) != (sliceErr == nil) || viewErr != nil && viewErr.Error() != sliceErr.Error() {
			t.Fatalf("%+v: replayer over the view: %v; over the slice: %v", s, viewErr, sliceErr)
		}
	})
}
