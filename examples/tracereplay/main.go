// Tracereplay demonstrates the trace-driven simulation workflow the
// original study ([Akyurek 93]) was built on: capture a workload's block
// requests once, then replay the identical trace against different
// configurations — here, every head-scheduling policy, with and without
// block rearrangement — for an apples-to-apples comparison no live
// system can give you.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/experiment"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	// 1. Capture one hour of the system file-server workload — the
	// library call behind cmd/tracegen — and write it as tracegen does.
	ctx := context.Background()
	recs, _, err := experiment.CaptureDay(ctx, "toshiba", "system", workload.HourMS, 1)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "tracereplay")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "hour.trace")
	if err := writeTrace(path, recs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("captured %d block requests (1 hour of the system workload)\n\n", len(recs))

	// 2. Replay it on a fresh Toshiba under each scheduler, original
	// layout vs the paper's 1018 hottest blocks rearranged (learned from
	// a prior replay of the same trace).
	fmt.Println("scheduler   layout      mean seek   zero-seeks   mean service")
	for _, s := range []string{"fcfs", "scan", "cscan", "sstf"} {
		for _, rearrange := range []*experiment.Rearrange{nil, {}} {
			r, err := experiment.Execute(ctx, experiment.Experiment{
				Devices:   experiment.Devices{Sched: s},
				Workload:  experiment.Workload{Source: experiment.Trace, TracePath: path},
				Rearrange: rearrange,
			})
			if err != nil {
				log.Fatal(err)
			}
			if r.Replay.Errors > 0 {
				log.Fatalf("%d replay errors", r.Replay.Errors)
			}
			layout := "original  "
			if rearrange != nil {
				layout = "rearranged"
			}
			side := r.Days[0].Stats.All()
			fmt.Printf("%-10s  %s  %7.2f ms  %9.0f%%  %10.2f ms\n",
				s, layout, r.Replay.SeekMS, side.SchedDist.ZeroFrac()*100, side.MeanServiceMS())
		}
	}
	fmt.Println("\nrearrangement helps under every scheduler; SCAN + rearrangement")
	fmt.Println("compound (the synergy the paper describes in Section 5.2).")
}

// writeTrace writes recs to path in tracegen's binary encoding.
func writeTrace(path string, recs []trace.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteBinary(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
