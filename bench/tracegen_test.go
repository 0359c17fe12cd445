package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tracein"
)

func TestTraceIsDeterministicPerSeed(t *testing.T) {
	gen := func(seed int64) []byte {
		var buf bytes.Buffer
		if err := writeTrace(&buf, seed, 5000); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(gen(7), gen(7)) {
		t.Error("the same seed gave two different traces")
	}
	if bytes.Equal(gen(7), gen(8)) {
		t.Error("two seeds gave the same trace")
	}
}

func TestTraceinAcceptsTheTrace(t *testing.T) {
	const records = 5000
	path := filepath.Join(t.TempDir(), "t.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeTrace(f, 3, records); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	recs, format, err := tracein.ReadFile(path, tracein.FormatUnknown, tracein.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if format != tracein.FormatMSR || len(recs) != records {
		t.Fatalf("read %d records as %v, want %d as msr", len(recs), format, records)
	}
	var reads int
	for i, r := range recs {
		if r.Block < 0 || r.Block >= traceBlocks || r.Part != 0 {
			t.Fatalf("record %d addresses partition %d block %d", i, r.Part, r.Block)
		}
		if i > 0 && r.TimeMS < recs[i-1].TimeMS {
			t.Fatalf("record %d goes back in time", i)
		}
		if !r.Write {
			reads++
		}
	}
	if share := float64(reads) / records; share < traceReadShare-0.03 || share > traceReadShare+0.03 {
		t.Errorf("read share %.3f, want about %.2f", share, traceReadShare)
	}
	// About 3.5 requests per simulated second, bursts and gaps included.
	if rate := records / (recs[records-1].TimeMS / 1000); rate < 2.5 || rate > 4.5 {
		t.Errorf("arrival rate %.2f/s, want about 3.5", rate)
	}
}
