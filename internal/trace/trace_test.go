package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/rig"
)

func sample() []Record {
	return []Record{
		{TimeMS: 0.125, Write: false, Part: 0, Block: 42},
		{TimeMS: 17.5, Write: true, Part: 1, Block: 9999},
		{TimeMS: 18.0, Write: false, Part: 0, Block: 0},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sample()
	if len(got) != len(want) {
		t.Fatalf("%d records", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Error("garbage accepted")
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestBinaryRejectsWidePartition(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, []Record{{Part: 300}}); err == nil {
		t.Error("partition 300 accepted")
	}
}

func TestTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sample()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestTextRejectsBadLines(t *testing.T) {
	if _, err := ReadText(bytes.NewReader([]byte("1.0 X 0 5\n"))); err == nil {
		t.Error("bad direction accepted")
	}
	if _, err := ReadText(bytes.NewReader([]byte("hello\n"))); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(times []uint32, blocks []uint16, writes []bool) bool {
		n := len(times)
		if len(blocks) < n {
			n = len(blocks)
		}
		if len(writes) < n {
			n = len(writes)
		}
		recs := make([]Record, n)
		for i := 0; i < n; i++ {
			recs[i] = Record{
				TimeMS: float64(times[i]) / 64,
				Write:  writes[i],
				Part:   i % 4,
				Block:  int64(blocks[i]),
			}
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, recs); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCapture(t *testing.T) {
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		t.Fatal(err)
	}
	cap := NewCapture(r.Eng, r.Driver)
	blockData := make([]byte, r.Driver.BlockSize().Bytes())
	r.Eng.At(10, func() { r.Driver.ReadBlock(0, 100, nil) })
	r.Eng.At(20, func() { r.Driver.WriteBlock(0, 200, blockData, nil) })
	r.Eng.At(30, func() { r.Driver.ReadBlock(0, 100, nil) })
	r.Eng.Run()
	cap.Close()
	recs := cap.Records()
	if len(recs) != 3 {
		t.Fatalf("captured %d records", len(recs))
	}
	if recs[0].TimeMS != 10 || recs[1].TimeMS != 20 {
		t.Errorf("timestamps = %v, %v", recs[0].TimeMS, recs[1].TimeMS)
	}
	if !recs[1].Write || recs[1].Block != 200 {
		t.Errorf("record 1 = %+v", recs[1])
	}
}

func TestCaptureIgnoresInternalTraffic(t *testing.T) {
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		t.Fatal(err)
	}
	blockData := make([]byte, r.Driver.BlockSize().Bytes())
	r.Driver.WriteBlock(0, 10, blockData, nil)
	r.Eng.Run()
	cap := NewCapture(r.Eng, r.Driver)
	orig := r.Label.MapVirtual(16 + 10*16)
	r.Driver.BCopy(orig, r.Driver.ReservedSlots()[0][0], nil)
	r.Eng.Run()
	cap.Close()
	if n := len(cap.Records()); n != 0 {
		t.Errorf("captured %d internal records", n)
	}
}
