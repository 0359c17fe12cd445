package tracein

import (
	"testing"

	"repro/internal/trace"
)

func TestScaleIdentity(t *testing.T) {
	in := sampleRecords()
	got := Scale{}.Apply(in)
	if len(got) != len(in) {
		t.Fatalf("%d records, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], in[i])
		}
	}
	// The identity scale still copies: mutating the output must not
	// touch the input.
	got[0].Block = -1
	if in[0].Block == -1 {
		t.Error("Apply aliased its input")
	}
	if s := (Scale{}).String(); s != "1x@1.0" {
		t.Errorf("identity String() = %q", s)
	}
}

func TestScaleCompress(t *testing.T) {
	in := []trace.Record{{TimeMS: 0}, {TimeMS: 100}, {TimeMS: 250}}
	got := Scale{Compress: 2}.Apply(in)
	want := []float64{0, 50, 125}
	for i, w := range want {
		if got[i].TimeMS != w {
			t.Errorf("record %d at %v ms, want %v", i, got[i].TimeMS, w)
		}
	}
}

// TestScaleMultiplex locks the deterministic interleave: with no phase
// offset, each input record expands to its copies in copy order at the
// same timestamp, with addresses shifted per copy.
func TestScaleMultiplex(t *testing.T) {
	in := []trace.Record{
		{TimeMS: 10, Block: 5},
		{TimeMS: 20, Block: 7, Write: true},
	}
	got := Scale{Copies: 3, ShiftBlocks: 100}.Apply(in)
	want := []trace.Record{
		{TimeMS: 10, Block: 5},
		{TimeMS: 10, Block: 105},
		{TimeMS: 10, Block: 205},
		{TimeMS: 20, Block: 7, Write: true},
		{TimeMS: 20, Block: 107, Write: true},
		{TimeMS: 20, Block: 207, Write: true},
	}
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if s := (Scale{Copies: 3, Compress: 2}).String(); s != "3x@2.0" {
		t.Errorf("String() = %q", s)
	}
}

func TestScaleWrap(t *testing.T) {
	in := []trace.Record{{Block: 90}}
	got := Scale{Copies: 3, ShiftBlocks: 50, WrapBlocks: 100}.Apply(in)
	want := []int64{90, 40, 90} // 90, 140%100, 190%100
	for i, w := range want {
		if got[i].Block != w {
			t.Errorf("copy %d at block %d, want %d", i, got[i].Block, w)
		}
	}
}

func TestScaleEmpty(t *testing.T) {
	if got := (Scale{}).Apply(nil); len(got) != 0 {
		t.Errorf("identity of empty = %d records", len(got))
	}
	if got := (Scale{Copies: 4}).Apply(nil); len(got) != 0 {
		t.Errorf("multiplex of empty = %d records", len(got))
	}
}
