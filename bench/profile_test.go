package main

import (
	"math"
	"os"
	"testing"
)

func TestLayerOfFunction(t *testing.T) {
	for name, want := range map[string]string{
		"repro/internal/fs.(*FS).encodeInodeBlock":        "fs",
		"repro/internal/fs.(*Handle).ReadAt.func1":        "fs",
		"repro/internal/disk.allZero":                     "disk",
		"repro/internal/seek.Curve.SeekMS":                "disk",
		"repro/internal/blocktable.(*Table).Lookup":       "driver",
		"repro/internal/hotlist.(*Exact).Observe":         "core",
		"repro/internal/trace.ReadBinary":                 "tracein",
		"repro/internal/telemetry.(*Collector).Metrics":   "observe",
		"repro/internal/experiment.Execute":               "harness",
		"repro/internal/somethingnew.Do":                  "harness",
		"main.run":                                        "harness",
		"runtime.mallocgc":                                "",
		"runtime.memclrNoHeapPointers":                    "",
		"encoding/json.Marshal":                           "",
		"repro/internal/sim.(*Engine).Run":                "sim",
		"repro/internal/volume.(*Volume).ReadBlock.func2": "volume",
	} {
		if got := layerOfFunction(name); got != want {
			t.Errorf("layerOfFunction(%q) = %q, want %q", name, got, want)
		}
	}
}

// testdata/cpu.pprof is a one-second profile of abrsim running table2
// (testdata/README says how it was taken).
func TestCPUByLayerOnFixture(t *testing.T) {
	gz, err := os.ReadFile("testdata/cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	byLayer, err := cpuByLayer(gz)
	if err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool)
	for _, l := range layers {
		known[l] = true
	}
	var total, top int64
	var topLayer string
	for l, ns := range byLayer {
		if !known[l] {
			t.Errorf("sample attributed to unknown layer %q", l)
		}
		if total += ns; ns > top {
			top, topLayer = ns, l
		}
	}
	// A second of profile at 100 Hz on up to two cores.
	if s := float64(total) / 1e9; s < 0.3 || s > 2.5 {
		t.Errorf("profile covers %.2f CPU-seconds", s)
	}
	// table2 is the atime-bound workload: fs leads, the runtime follows.
	if topLayer != "fs" {
		t.Errorf("largest layer is %s (%v)", topLayer, byLayer)
	}
	if byLayer["runtime"] == 0 || byLayer["server"] != 0 || byLayer["volume"] != 0 {
		t.Errorf("roll-up = %v", byLayer)
	}
	var shares float64
	for _, l := range layers {
		shares += share(float64(byLayer[l]), float64(total))
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Errorf("shares sum to %v", shares)
	}
}

func TestCPUByLayerRejectsGarbage(t *testing.T) {
	if _, err := cpuByLayer([]byte("not a profile")); err == nil {
		t.Error("garbage decoded")
	}
}
