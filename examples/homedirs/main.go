// Homedirs reproduces the paper's *users* file system experiment in
// miniature: read/write home directories of 10 (Toshiba) or 20
// (Fujitsu) users, run over alternating off/on days. Per Section 5.3,
// rearrangement helps here too, but much less than on the system file
// system: the stream is flatter and drifts day to day.
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

	fmt.Printf("simulating %d days x %.1f h of the users file system on both disks...\n\n", *days, *hours)
	rs, err := experiment.Gather(context.Background(), []experiment.Need{experiment.NeedUsers}, experiment.Options{
		Days:     *days,
		WindowMS: *hours * workload.HourMS,
	}, runner.Config{})
	if err != nil {
		log.Fatal(err)
	}
	runs := rs.Runs(experiment.NeedUsers)
	fmt.Println(experiment.Table5(runs).Render())
	fmt.Println(experiment.Table6(runs).Render())
	fmt.Println(experiment.Figure7(runs)[0].Render()) // the table; [1] is its chart
}
