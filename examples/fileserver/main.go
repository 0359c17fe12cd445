// Fileserver reproduces the paper's headline experiment in miniature:
// the read-only *system* file system (executables and libraries served
// to 14 NFS clients) on both disks, run over alternating off/on days.
// It prints Tables 2 and 3 with the paper's numbers alongside.
//
// The full-length version of this experiment (complete 7am-10pm days)
// is run by `abrsim -exp table2`; this example compresses the day to
// one hour so it finishes in seconds.
package main

import (
	"context"

	"flag"
	"fmt"
	"log"

	"repro/internal/experiment"
	"repro/internal/runner"
	"repro/internal/workload"
)

func main() {
	days := flag.Int("days", 4, "days to simulate (alternating off/on)")
	hours := flag.Float64("hours", 1, "measured hours per day")
	flag.Parse()

	fmt.Printf("simulating %d days x %.1f h of the system file system on both disks...\n\n", *days, *hours)
	rs, err := experiment.Gather(context.Background(), []experiment.Need{experiment.NeedSystem}, experiment.Options{
		Days:     *days,
		WindowMS: *hours * workload.HourMS,
	}, runner.Config{})
	if err != nil {
		log.Fatal(err)
	}
	runs := rs.Runs(experiment.NeedSystem)
	fmt.Println(experiment.Table2(runs).Render())
	fmt.Println(experiment.Table3(runs).Render())
	fmt.Println(experiment.Figure5(runs)[0].Render()) // the table; [1] is its chart
}
