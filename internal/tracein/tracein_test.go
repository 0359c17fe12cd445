package tracein

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// sampleRecords is a small native trace with awkward values: fractional
// sub-millisecond times, both directions, a second partition.
func sampleRecords() []trace.Record {
	return []trace.Record{
		{TimeMS: 0, Write: false, Part: 0, Block: 10},
		{TimeMS: 0.125, Write: true, Part: 0, Block: 11},
		{TimeMS: 3.0000001, Write: false, Part: 1, Block: 0},
		{TimeMS: 1000.5, Write: true, Part: 0, Block: 999999},
		{TimeMS: 86_400_000.25, Write: false, Part: 0, Block: 1},
	}
}

func TestFormatString(t *testing.T) {
	for f, want := range map[Format]string{
		FormatUnknown: "unknown", FormatBinary: "binary", FormatText: "text",
		FormatMSR: "msr", FormatBlkparse: "blkparse",
	} {
		if got := f.String(); got != want {
			t.Errorf("Format(%d).String() = %q, want %q", int(f), got, want)
		}
	}
}

func TestParseModeNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Mode
	}{
		{"", OpenLoop}, {"open", OpenLoop}, {"closed", ClosedLoop},
	} {
		got, err := ParseMode(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	if _, err := ParseMode("batch"); err == nil {
		t.Error("ParseMode(batch) should fail")
	}
	if OpenLoop.String() != "open" || ClosedLoop.String() != "closed" {
		t.Error("Mode String() names changed")
	}
}

func TestDetect(t *testing.T) {
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	if err := trace.WriteText(&txt, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		input []byte
		want  Format
	}{
		{"binary", bin.Bytes(), FormatBinary},
		{"native-text", txt.Bytes(), FormatText},
		{"msr-header", []byte("Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n"), FormatMSR},
		{"msr-event", []byte("128166372003061629,hm,0,Read,383496192,32768,58\n"), FormatMSR},
		{"blkparse", []byte("8,0 1 1 0.000000000 1234 Q R 7077888 + 16 [fio]\n"), FormatBlkparse},
		{"blkparse-leading-blank", []byte("\n8,0 3 7 1.5 99 Q WS 1024 + 8 [app]\n"), FormatBlkparse},
		{"garbage", []byte("hello world\n"), FormatUnknown},
		{"empty", nil, FormatUnknown},
	} {
		if got := Detect(tc.input); got != tc.want {
			t.Errorf("Detect(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestNativeRoundTrip locks the tracegen→tracein loop: records written
// by the trace package's binary and text encoders must parse back
// identically — every field, including sub-millisecond times — with the
// format auto-detected.
func TestNativeRoundTrip(t *testing.T) {
	want := sampleRecords()
	for _, tc := range []struct {
		name   string
		encode func(*bytes.Buffer) error
		format Format
	}{
		{"binary", func(b *bytes.Buffer) error { return trace.WriteBinary(b, want) }, FormatBinary},
		{"text", func(b *bytes.Buffer) error { return trace.WriteText(b, want) }, FormatText},
	} {
		var buf bytes.Buffer
		if err := tc.encode(&buf); err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		got, err := ReadAll(bytes.NewReader(buf.Bytes()), FormatUnknown, Options{})
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d", tc.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: record %d = %+v, want %+v", tc.name, i, got[i], want[i])
			}
		}
	}
}

func TestParseMSR(t *testing.T) {
	input := strings.Join([]string{
		"Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime",
		"128166372003061629,usr,0,Read,16384,8192,100",   // block 2 exactly
		"128166372003061629,usr,0,Write,24576,16384,100", // blocks 3-4, same tick
		"128166372003071629,usr,1,read,4096,8192,100",    // straddles blocks 0-1, 1 ms later
		"128166372003071629,usr,0,Read,81920,0,100",      // zero size: probe of block 10
	}, "\n")
	got, err := ReadAll(strings.NewReader(input), FormatMSR, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []trace.Record{
		{TimeMS: 0, Write: false, Part: 0, Block: 2},
		{TimeMS: 0, Write: true, Part: 0, Block: 3},
		{TimeMS: 0, Write: true, Part: 0, Block: 4},
		{TimeMS: 1, Write: false, Part: 1, Block: 0},
		{TimeMS: 1, Write: false, Part: 1, Block: 1},
		{TimeMS: 1, Write: false, Part: 0, Block: 10},
	}
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestParseMSRNoHeader(t *testing.T) {
	got, err := ReadAll(strings.NewReader("5000000,h,0,Write,0,4096,1\n"), FormatMSR, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != (trace.Record{TimeMS: 0, Write: true, Part: 0, Block: 0}) {
		t.Fatalf("got %+v", got)
	}
}

func TestParseMSRBlockBytes(t *testing.T) {
	// A 4 KB block size halves the addresses an 8 KB one would produce.
	got, err := ReadAll(strings.NewReader("1,h,0,Read,8192,4096,1\n"), FormatMSR, Options{BlockBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Block != 2 {
		t.Fatalf("got %+v, want one record at block 2", got)
	}
}

func TestParseBlkparse(t *testing.T) {
	input := strings.Join([]string{
		"8,0 1 1 0.000000000 1234 Q R 32 + 16 [fio]", // sectors 32..47 = bytes 16384..24575: block 2
		"CPU0 (8,0):",                                // summary noise
		" Reads Queued:      1,        8KiB",         // more noise
		"8,0 1 2 0.001000000 1234 C R 32 + 16 [fio]", // completion: skipped
		"8,0 0 3 0.250000000 77 Q WS 64 + 32 [app]",  // write, blocks 4-5
		"8,0 0 4 0.300000000 77 Q FN 0 + 0 [app]",    // flush, no R/W: skipped
		"",
	}, "\n")
	got, err := ReadAll(strings.NewReader(input), FormatBlkparse, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []trace.Record{
		{TimeMS: 0, Write: false, Part: 0, Block: 2},
		{TimeMS: 250, Write: true, Part: 0, Block: 4},
		{TimeMS: 250, Write: true, Part: 0, Block: 5},
	}
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestMalformedInputs is the typed-error table: every corrupt input
// fails with the right sentinel through errors.Is, and line numbers
// point at the offending line.
func TestMalformedInputs(t *testing.T) {
	truncBin := func() []byte {
		var b bytes.Buffer
		if err := trace.WriteBinary(&b, sampleRecords()); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()[:b.Len()-7] // cut into the last record
	}()
	badVersion := func() []byte {
		var b bytes.Buffer
		if err := trace.WriteBinary(&b, nil); err != nil {
			t.Fatal(err)
		}
		buf := b.Bytes()
		buf[5] = 99 // version
		return buf
	}()
	for _, tc := range []struct {
		name   string
		format Format
		input  []byte
		want   error
		line   int // 0 = don't check
	}{
		{"binary-truncated-record", FormatBinary, truncBin, ErrTruncated, 5},
		{"binary-truncated-header", FormatBinary, []byte{0x41, 0x42}, ErrBadField, 0},
		{"binary-bad-version", FormatBinary, badVersion, ErrBadField, 0},
		{"text-bad-direction", FormatText, []byte("1.5 X 0 100\n"), ErrBadField, 1},
		{"text-missing-fields", FormatText, []byte("0 R 0 1\n2.5 W 0\n"), ErrBadField, 2},
		{"text-garbage", FormatText, []byte("0 R 0 1\nnot a record\n"), ErrBadField, 2},
		{"msr-missing-fields", FormatMSR, []byte("1,h,0,Read,0\n"), ErrTruncated, 1},
		{"msr-bad-type", FormatMSR, []byte("1,h,0,Trim,0,4096,1\n"), ErrBadField, 1},
		{"msr-bad-timestamp", FormatMSR, []byte("1,h,0,Read,0,4096,1\nxx,h,0,Read,0,4096,1\n"), ErrBadField, 2},
		{"msr-bad-offset", FormatMSR, []byte("1,h,0,Read,zz,4096,1\n"), ErrBadField, 1},
		{"msr-negative-offset", FormatMSR, []byte("1,h,0,Read,-8192,4096,1\n"), ErrOutOfRange, 1},
		{"msr-negative-size", FormatMSR, []byte("1,h,0,Read,0,-1,1\n"), ErrOutOfRange, 1},
		{"msr-huge-size", FormatMSR, []byte("1,h,0,Read,0,9000000000000000000,1\n"), ErrOutOfRange, 1},
		{"msr-bad-disk", FormatMSR, []byte("1,h,x,Read,0,4096,1\n"), ErrBadField, 1},
		{"msr-disk-out-of-range", FormatMSR, []byte("1,h,300,Read,0,4096,1\n"), ErrOutOfRange, 1},
		{"msr-non-monotonic", FormatMSR, []byte("20000,h,0,Read,0,4096,1\n10000,h,0,Read,0,4096,1\n"), ErrNonMonotonic, 2},
		{"blkparse-short-line", FormatBlkparse, []byte("8,0 1 1 0.5\n"), ErrTruncated, 1},
		{"blkparse-bad-time", FormatBlkparse, []byte("8,0 1 1 zz 99 Q R 32 + 16 [x]\n"), ErrBadField, 1},
		{"blkparse-negative-time", FormatBlkparse, []byte("8,0 1 1 -0.5 99 Q R 32 + 16 [x]\n"), ErrOutOfRange, 1},
		{"blkparse-no-sector", FormatBlkparse, []byte("8,0 1 1 0.5 99 Q R\n"), ErrTruncated, 1},
		{"blkparse-bad-sector", FormatBlkparse, []byte("8,0 1 1 0.5 99 Q R zz + 16 [x]\n"), ErrBadField, 1},
		{"blkparse-negative-sector", FormatBlkparse, []byte("8,0 1 1 0.5 99 Q R -32 + 16 [x]\n"), ErrOutOfRange, 1},
		{"blkparse-no-plus", FormatBlkparse, []byte("8,0 1 1 0.5 99 Q R 32 * 16 [x]\n"), ErrBadField, 1},
		{"blkparse-bad-count", FormatBlkparse, []byte("8,0 1 1 0.5 99 Q R 32 + zz [x]\n"), ErrBadField, 1},
		{"blkparse-huge-count", FormatBlkparse, []byte("8,0 1 1 0.5 99 Q R 32 + 9000000000000000000 [x]\n"), ErrOutOfRange, 1},
		{"blkparse-non-monotonic", FormatBlkparse, []byte("8,0 1 1 2.0 99 Q R 32 + 16 [x]\n8,0 1 2 1.0 99 Q R 64 + 16 [x]\n"), ErrNonMonotonic, 2},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadAll(bytes.NewReader(tc.input), tc.format, Options{})
			if err == nil {
				t.Fatal("parse succeeded on corrupt input")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %T is not a *ParseError", err)
			}
			if pe.Format != tc.format {
				t.Errorf("ParseError.Format = %v, want %v", pe.Format, tc.format)
			}
			if tc.line > 0 && pe.Line != tc.line {
				t.Errorf("ParseError.Line = %d, want %d (%v)", pe.Line, tc.line, err)
			}
			if pe.Error() == "" {
				t.Error("empty error string")
			}
		})
	}
}

func TestParseUnknownFormat(t *testing.T) {
	if _, err := ReadAll(strings.NewReader("what is this\n"), FormatUnknown, Options{}); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("got %v, want ErrUnknownFormat", err)
	}
}

// TestEmitAbort checks that an emit callback's error aborts the parse
// and surfaces unchanged, for every format.
func TestEmitAbort(t *testing.T) {
	sentinel := errors.New("stop")
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	if err := trace.WriteText(&txt, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		format Format
		input  []byte
	}{
		{FormatBinary, bin.Bytes()},
		{FormatText, txt.Bytes()},
		{FormatMSR, []byte("1,h,0,Read,0,4096,1\n")},
		{FormatBlkparse, []byte("8,0 1 1 0.5 99 Q R 32 + 16 [x]\n")},
	} {
		err := Parse(bytes.NewReader(tc.input), tc.format, Options{}, func(trace.Record) error {
			return sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("%v: emit error %v, want the sentinel unchanged", tc.format, err)
		}
	}
}

func TestReadFile(t *testing.T) {
	dir := t.TempDir()
	want := sampleRecords()
	binPath := filepath.Join(dir, "t.trace")
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, want); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(binPath, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, f, err := ReadFile(binPath, FormatUnknown, Options{})
	if err != nil || f != FormatBinary || len(recs) != len(want) {
		t.Fatalf("ReadFile auto: %v records, format %v, err %v", len(recs), f, err)
	}
	// Explicit format too.
	recs, f, err = ReadFile(binPath, FormatBinary, Options{})
	if err != nil || f != FormatBinary || len(recs) != len(want) {
		t.Fatalf("ReadFile explicit: %v records, format %v, err %v", len(recs), f, err)
	}
	if _, _, err := ReadFile(filepath.Join(dir, "missing"), FormatUnknown, Options{}); err == nil {
		t.Error("ReadFile on a missing path should fail")
	}
	garbled := filepath.Join(dir, "garbled")
	if err := os.WriteFile(garbled, []byte("no format at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFile(garbled, FormatUnknown, Options{}); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("ReadFile on garbage: %v, want ErrUnknownFormat", err)
	}
}
