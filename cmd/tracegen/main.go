// Command tracegen generates a block-request trace by running one of
// the paper's file-server workloads against a simulated disk, capturing
// every driver request, and writing it to a file in the binary or text
// trace format.
//
// Usage:
//
//	tracegen -o day.trace [-fs system|users] [-disk toshiba|fujitsu]
//	         [-hours H] [-format binary|text] [-seed S]
//
// The resulting trace can be replayed with abrreport, or scaled and
// replayed against a volume with abrsim -exp trace-replay -trace-in.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/experiment"
	"repro/internal/rig"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	out := flag.String("o", "", "output trace file (required)")
	fsName := flag.String("fs", "system", "workload: system or users")
	diskName := flag.String("disk", "toshiba", "disk model: toshiba or fujitsu")
	hours := flag.Float64("hours", 2, "hours of traffic to capture")
	format := flag.String("format", "binary", "trace format: binary or text")
	seed := flag.Uint64("seed", 1, "workload seed")
	flag.Parse()

	if err := run(*out, *fsName, *diskName, *hours, *format, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// run validates every argument before simulating anything, so a
// rejected command line costs nothing and leaves no file behind.
func run(out, fsName, diskName string, hours float64, format string, seed uint64) error {
	if out == "" {
		return fmt.Errorf("-o is required: name the trace file to write")
	}
	write := trace.WriteBinary
	switch format {
	case "binary":
	case "text":
		write = trace.WriteText
	default:
		return fmt.Errorf("-format %q: want binary or text", format)
	}
	if fsName != "system" && fsName != "users" {
		return fmt.Errorf("-fs %q: want system or users", fsName)
	}
	if _, _, err := rig.PaperDisk(diskName); err != nil {
		return fmt.Errorf("-disk: %w", err)
	}
	if !(hours > 0) || math.IsInf(hours, 0) {
		return fmt.Errorf("-hours %v: want a positive, finite number of hours", hours)
	}

	recs, _, err := experiment.CaptureDay(context.Background(), diskName, fsName, hours*workload.HourMS, seed)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := write(f, recs); err != nil {
		f.Close()
		os.Remove(out)
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %d records to %s\n", len(recs), out)
	return nil
}
