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

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/experiment"
	"repro/internal/rig"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/tracein"
	"repro/internal/workload"
)

func main() {
	// 1. Capture one hour of the system file-server workload — the
	// library call behind cmd/tracegen.
	recs, _, err := experiment.CaptureDay(context.Background(), "toshiba", "system", workload.HourMS, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("captured %d block requests (1 hour of the system workload)\n\n", len(recs))

	// 2. Replay it under each scheduler, original layout vs rearranged.
	fmt.Println("scheduler   layout      mean seek   zero-seeks   mean service")
	for _, s := range []string{"fcfs", "scan", "cscan", "sstf"} {
		for _, rearranged := range []bool{false, true} {
			seekMS, zeroPct, svcMS := replay(recs, s, rearranged)
			layout := "original  "
			if rearranged {
				layout = "rearranged"
			}
			fmt.Printf("%-10s  %s  %7.2f ms  %9.0f%%  %10.2f ms\n",
				s, layout, seekMS, zeroPct, svcMS)
		}
	}
	fmt.Println("\nrearrangement helps under every scheduler; SCAN + rearrangement")
	fmt.Println("compound (the synergy the paper describes in Section 5.2).")
}

// replay runs the trace on a fresh disk with the given scheduler,
// optionally rearranging the 1018 hottest blocks first (learned from a
// prior replay of the same trace).
func replay(recs []trace.Record, schedName string, rearranged bool) (seekMS, zeroPct, svcMS float64) {
	policy, err := sched.New(schedName)
	if err != nil {
		log.Fatal(err)
	}
	r, err := rig.New(rig.Options{
		ReservedCyls:     48,
		Sched:            policy,
		RequestTableSize: len(recs) + 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	model := disk.Toshiba()

	if rearranged {
		// Learning pass: replay once to collect counts, rearrange, and
		// discard the learning statistics.
		runReplay(r, recs)
		rear, err := core.New(r.Eng, r.Driver, core.Config{MaxBlocks: 1018})
		if err != nil {
			log.Fatal(err)
		}
		rear.Poll()
		rear.Rearrange(func(_ int, err error) {
			if err != nil {
				log.Fatal(err)
			}
		})
		r.Eng.Run()
		r.Driver.ReadStats()
	}

	runReplay(r, recs)
	side := r.Driver.ReadStats().All()
	return side.MeanSeekMS(model.Seek), side.SchedDist.ZeroFrac() * 100, side.MeanServiceMS()
}

func runReplay(r *rig.Rig, recs []trace.Record) {
	rep, err := tracein.NewReplayer(r.Eng, r.Driver, recs, tracein.ReplayOptions{Mode: tracein.OpenLoop})
	if err != nil {
		log.Fatal(err)
	}
	done := false
	rep.Start(func(res tracein.Result) {
		if res.Errors > 0 {
			log.Fatalf("%d replay errors", res.Errors)
		}
		done = true
	})
	r.Eng.Run()
	if !done {
		log.Fatal("replay stalled")
	}
}
