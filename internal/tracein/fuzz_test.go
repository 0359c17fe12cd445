package tracein

import (
	"bytes"
	"errors"
	"testing"

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

// FuzzParseMSR hammers the MSR-Cambridge CSV parser directly.
func FuzzParseMSR(f *testing.F) {
	f.Add([]byte("128166372003061629,usr,0,Read,16384,8192,100\n"))
	f.Add([]byte("Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n1,h,0,Write,0,4096,1\n"))
	f.Add([]byte("1,h,0,Read,-1,4096,1\n"))
	f.Add([]byte("2,h,0,Read,0,4096,1\n1,h,0,Read,0,4096,1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		err := ParseMSR(bytes.NewReader(data), Options{}, fuzzEmit(&n))
		checkFuzzErr(t, FormatMSR, err)
	})
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
