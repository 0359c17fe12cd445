// Command policies compares the three block placement policies of
// Section 4.2 — organ-pipe, interleaved, and serial — on the same
// workload: one experiment per policy, the system file server on the
// Toshiba for an off day and an on day, reporting the on day.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/experiment"
	"repro/internal/workload"
)

func main() {
	fmt.Println("placement policy comparison (Toshiba, system file system, on day)")
	fmt.Println("policy        mean seek (ms)   zero-length seeks   seek reduction")
	for _, p := range experiment.PolicyNames {
		r, err := experiment.Execute(context.Background(), experiment.Experiment{
			Workload:  experiment.Workload{Source: experiment.System},
			Rearrange: &experiment.Rearrange{Policy: p},
			Days:      2,
			WindowMS:  workload.HourMS,
		})
		if err != nil {
			log.Fatal(err)
		}
		m := r.Days[1].Metrics(r.Curve, experiment.AllRequests)
		fmt.Printf("%-12s  %14.2f   %16.0f%%   %13.0f%%\n", p, m.SeekMS, m.ZeroSeekPct, experiment.SeekReductionPct(m))
	}
	fmt.Println("\npaper (Table 7, Toshiba): organ-pipe 95%, interleaved 87%, serial 58%.")
}
