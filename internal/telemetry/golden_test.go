package telemetry_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rig"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden telemetry fixtures")

// TestGoldenFixtures drives a fixed request schedule through the full
// rig and compares the resulting JSONL trace and sampler CSV against
// checked-in fixtures, byte for byte. The workload covers reads,
// writes, a block move into the reserved region, and redirected
// requests, so every span field is exercised. On mismatch the observed
// bytes are written next to the golden file with a .got suffix (CI
// uploads them as an artifact).
func TestGoldenFixtures(t *testing.T) {
	col := telemetry.NewCollector("golden", telemetry.Options{
		Spans:          true,
		SamplePeriodMS: 250,
	})
	r := rig.MustNew(rig.Options{ReservedCyls: 48, Telemetry: col})
	drv, eng := r.Driver, r.Eng

	reg := col.Metrics()
	reg.GaugeFunc("queue_depth", func() float64 { return float64(drv.QueueLen()) })
	reg.GaugeFunc("outstanding", func() float64 { return float64(drv.Outstanding()) })
	reg.CounterFunc("completed", func() int64 { return drv.Counters().Requests })
	reg.CounterFunc("redirected", func() int64 { return drv.Counters().Redirected })
	col.StartSampler(eng)

	fail := func(data []byte, err error) {
		if err != nil {
			t.Errorf("request failed: %v", err)
		}
	}
	blockBytes := drv.BlockSize().Bytes()
	data := make([]byte, blockBytes)
	for i := range data {
		data[i] = byte(i)
	}

	// A fixed pseudo-random schedule from a hand-rolled LCG: 32
	// requests over the first two simulated seconds, mixing reads and
	// writes across the partition.
	seed := uint64(42)
	next := func(mod uint64) uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return (seed >> 33) % mod
	}
	blocks := r.PartitionBlocks(0)
	var hot int64 // most requested block, moved later
	for i := 0; i < 32; i++ {
		at := float64(i)*60 + float64(next(50))
		blk := int64(next(uint64(blocks)))
		if i%4 == 0 {
			blk = blocks / 2 // repeated hot block
			hot = blk
		}
		write := i%3 == 0
		eng.At(at, func() {
			if write {
				drv.WriteBlock(0, blk, data, fail)
			} else {
				drv.ReadBlock(0, blk, fail)
			}
		})
	}
	eng.RunUntil(2500)

	// Move the hot block into the reserved region, then read it again:
	// the move emits internal spans and the re-reads redirected ones.
	bsec := int64(drv.BlockSize().Sectors())
	p0, err := r.Label.Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	orig := r.Label.MapVirtual(p0.Start + hot*bsec)
	slot := drv.ReservedSlots()[0][0]
	moved := false
	eng.At(2600, func() {
		drv.BCopy(orig, slot, func(err error) {
			if err != nil {
				t.Errorf("BCopy failed: %v", err)
			}
			moved = true
		})
	})
	for i := 0; i < 4; i++ {
		eng.At(3000+float64(i)*40, func() { drv.ReadBlock(0, hot, fail) })
	}
	eng.RunUntil(3500)
	if !moved {
		t.Fatal("block move did not complete")
	}
	col.SetEngineEvents(eng.Dispatched())

	var trace, csv bytes.Buffer
	if err := telemetry.WriteTrace(&trace, []*telemetry.Collector{col}); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteCSV(&csv, []*telemetry.Collector{col}); err != nil {
		t.Fatal(err)
	}
	if col.Events() == 0 || col.Samples() == 0 {
		t.Fatalf("no telemetry captured: %d events, %d samples", col.Events(), col.Samples())
	}

	compareGolden(t, filepath.Join("testdata", "golden.jsonl"), trace.Bytes())
	compareGolden(t, filepath.Join("testdata", "golden.csv"), csv.Bytes())
}

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create fixtures)", err)
	}
	if !bytes.Equal(got, want) {
		gotPath := path + ".got"
		if werr := os.WriteFile(gotPath, got, 0o644); werr != nil {
			t.Logf("could not write %s: %v", gotPath, werr)
		}
		t.Errorf("%s: output differs from golden fixture (%d vs %d bytes); observed bytes written to %s",
			path, len(got), len(want), gotPath)
	}
}
