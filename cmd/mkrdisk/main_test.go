package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blocktable"
	"repro/internal/geom"
	"repro/internal/label"
)

// TestRunRejects covers the argument validation: each rejection names
// the flag, the value and what is accepted, and prints no layout.
func TestRunRejects(t *testing.T) {
	for _, tc := range []struct {
		name     string
		disk     string
		reserved int
		want     []string // substrings of the error
	}{
		{"bad-disk", "quantum", 0, []string{"-disk", `"quantum"`, "toshiba, fujitsu"}},
		{"reserved-whole-disk", "toshiba", 100000, []string{"-reserved 100000", "1 to 813", "815 cylinders"}},
		{"reserved-negative", "fujitsu", -3, []string{"-reserved -3", "the paper's 80"}},
		{"reserved-unalignable", "toshiba", 813, []string{"-reserved 813", "block-aligned"}},
	} {
		var out bytes.Buffer
		err := run(&out, tc.disk, tc.reserved, "")
		if err == nil {
			t.Errorf("%s: run succeeded, want error", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, w)
			}
		}
		if out.Len() != 0 {
			t.Errorf("%s: rejected run printed %q", tc.name, out.String())
		}
	}
}

// TestImageDecodesToPrintedLayout writes an image and reads it back:
// the label sector and the block table sit where the printed layout
// says, and decode to what it says.
func TestImageDecodesToPrintedLayout(t *testing.T) {
	img := filepath.Join(t.TempDir(), "disk.img")
	var out bytes.Buffer
	if err := run(&out, "fujitsu", 0, img); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(img)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sector := make([]byte, geom.SectorSize)
	if _, err := f.ReadAt(sector, label.LabelSector*geom.SectorSize); err != nil {
		t.Fatal(err)
	}
	lbl, err := label.Decode(sector)
	if err != nil {
		t.Fatal(err)
	}
	if !lbl.Rearranged {
		t.Error("image's label is not marked rearranged")
	}
	first, count := lbl.ReservedCyls()
	p, err := lbl.Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"disk:              " + lbl.Name + "\n",
		fmt.Sprintf("reserved region:   cylinders %d-%d (80 cylinders,", first, first+count-1),
		fmt.Sprintf("virtual disk:      %d cylinders (%d sectors)\n", lbl.VirtualGeom().Cylinders, lbl.VirtualSectors()),
		fmt.Sprintf("fs partition:      %d blocks\n", p.Size/int64(geom.Block8K.Sectors())),
		"wrote label + empty block table to " + img + "\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("printed layout lacks %q:\n%s", want, out.String())
		}
	}
	table, err := io.ReadAll(io.NewSectionReader(f, lbl.ReservedStart*geom.SectorSize, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	bt, err := blocktable.Decode(table)
	if err != nil {
		t.Fatalf("block table at the head of the reserved region: %v", err)
	}
	if bt.Len() != 0 {
		t.Errorf("fresh block table holds %d entries", bt.Len())
	}
}
