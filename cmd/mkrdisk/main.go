// Command mkrdisk initializes a disk image for block rearrangement and
// prints its layout — the analogue of the paper's modified
// label-writing utility (Section 4.1.1): it writes a disk label that
// hides the reserved cylinders from the file system, marks the disk as
// "rearranged", and installs an empty block table at the head of the
// reserved region.
//
// Usage:
//
//	mkrdisk [-disk toshiba|fujitsu] [-reserved N] [-o disk.img]
//
// Without -o the layout is printed but nothing is written; with -o the
// label sector and block table are written at their byte offsets into a
// sparse image file that tools and tests can inspect.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/blocktable"
	"repro/internal/geom"
	"repro/internal/label"
	"repro/internal/rig"
)

func main() {
	diskName := flag.String("disk", "toshiba", "disk model: toshiba or fujitsu")
	reserved := flag.Int("reserved", 0, "reserved cylinders (0 = the paper's 48/80)")
	out := flag.String("o", "", "write the label and block table into this image file")
	flag.Parse()

	if err := run(os.Stdout, *diskName, *reserved, *out); err != nil {
		fmt.Fprintln(os.Stderr, "mkrdisk:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, diskName string, reserved int, out string) error {
	model, paperReserved, err := rig.PaperDisk(diskName)
	if err != nil {
		return fmt.Errorf("-disk: %w", err)
	}
	if reserved == 0 {
		reserved = paperReserved
	}
	// The label sector and at least one file system cylinder must
	// remain outside the region.
	if reserved < 0 || reserved >= model.Geom.Cylinders-1 {
		return fmt.Errorf("-reserved %d: want 0 (the paper's %d) or 1 to %d of the %s's %d cylinders",
			reserved, paperReserved, model.Geom.Cylinders-2, model.Name, model.Geom.Cylinders)
	}
	firstCyl, err := label.AlignedFirstCyl(model.Geom, geom.Block8K.Sectors(),
		(model.Geom.Cylinders-reserved)/2)
	if err != nil {
		return fmt.Errorf("-reserved %d: %w", reserved, err)
	}
	lbl, err := label.NewRearrangedAt(model.Name, model.Geom, firstCyl, reserved)
	if err != nil {
		return err
	}
	bsec := int64(geom.Block8K.Sectors())
	start := bsec
	size := (lbl.VirtualSectors() - start) / bsec * bsec
	if _, err := lbl.AddPartition(start, size, label.TagFS); err != nil {
		return err
	}

	first, count := lbl.ReservedCyls()
	fmt.Fprintf(w, "disk:              %s\n", model.Name)
	fmt.Fprintf(w, "geometry:          %d cylinders, %d tracks/cyl, %d sectors/track\n",
		model.Geom.Cylinders, model.Geom.TracksPerCyl, model.Geom.SectorsPerTrack)
	fmt.Fprintf(w, "capacity:          %d MB\n", model.Geom.Capacity()>>20)
	fmt.Fprintf(w, "reserved region:   cylinders %d-%d (%d cylinders, %.1f MB, %.1f%% of disk)\n",
		first, first+count-1, count,
		float64(lbl.ReservedLen)*geom.SectorSize/(1<<20),
		100*float64(lbl.ReservedLen)/float64(model.Geom.TotalSectors()))
	fmt.Fprintf(w, "virtual disk:      %d cylinders (%d sectors)\n",
		lbl.VirtualGeom().Cylinders, lbl.VirtualSectors())
	fmt.Fprintf(w, "block slots:       %d 8K blocks fit in the reserved region\n",
		geom.Block8K.BlocksIn(lbl.ReservedLen))
	fmt.Fprintf(w, "fs partition:      %d blocks\n", size/bsec)

	if out == "" {
		return nil
	}
	img, err := lbl.Encode()
	if err != nil {
		return err
	}
	bt := blocktable.New(geom.Block8K)
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.WriteAt(img, label.LabelSector*geom.SectorSize); err != nil {
		return err
	}
	if _, err := f.WriteAt(bt.Encode(), lbl.ReservedStart*geom.SectorSize); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote label + empty block table to %s\n", out)
	return f.Close()
}
