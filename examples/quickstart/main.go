// Quickstart: the paper's core claim in one experiment. The system file
// server runs on the Toshiba MK156F for two one-hour days: day 0 in the
// layout the file system chose, then overnight the rearranger moves the
// hot blocks it counted to the reserved middle cylinders, and day 1
// serves the same workload from the rearranged disk.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/experiment"
	"repro/internal/workload"
)

func main() {
	r, err := experiment.Execute(context.Background(), experiment.Experiment{
		Workload:  experiment.Workload{Source: experiment.System},
		Rearrange: &experiment.Rearrange{},
		Days:      2, // day 0 off, day 1 on
		WindowMS:  workload.HourMS,
	})
	if err != nil {
		log.Fatal(err)
	}
	before := r.Days[0].Metrics(r.Curve, experiment.AllRequests)
	after := r.Days[1].Metrics(r.Curve, experiment.AllRequests)
	fmt.Printf("rearranged blocks:      %d\n", r.Installed[0])
	fmt.Printf("mean seek before:       %.2f ms (%.0f cylinders)\n", before.SeekMS, before.Dist)
	fmt.Printf("mean seek after:        %.2f ms (%.0f cylinders)\n", after.SeekMS, after.Dist)
	fmt.Printf("zero-length seeks:      %.0f%% -> %.0f%%\n", before.ZeroSeekPct, after.ZeroSeekPct)
	fmt.Printf("mean service time:      %.2f ms -> %.2f ms\n", before.ServiceMS, after.ServiceMS)
}
