package geom

import (
	"testing"
	"testing/quick"
)

func toshiba() Geometry {
	return Geometry{Cylinders: 815, TracksPerCyl: 10, SectorsPerTrack: 34, RPM: 3600}
}

func fujitsu() Geometry {
	return Geometry{Cylinders: 1658, TracksPerCyl: 15, SectorsPerTrack: 85, RPM: 3600}
}

func TestValidate(t *testing.T) {
	if err := toshiba().Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := []Geometry{
		{Cylinders: 0, TracksPerCyl: 1, SectorsPerTrack: 1, RPM: 1},
		{Cylinders: 1, TracksPerCyl: 0, SectorsPerTrack: 1, RPM: 1},
		{Cylinders: 1, TracksPerCyl: 1, SectorsPerTrack: -3, RPM: 1},
		{Cylinders: 1, TracksPerCyl: 1, SectorsPerTrack: 1, RPM: 0},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid geometry %+v accepted", i, g)
		}
	}
}

func TestCapacityMatchesPaper(t *testing.T) {
	// Table 1: Toshiba MK156F is a 135 MB disk, Fujitsu M2266 is 1 GB.
	if got := toshiba().Capacity(); got < 130<<20 || got > 145<<20 {
		t.Errorf("Toshiba capacity = %d bytes, want ~135 MB", got)
	}
	if got := fujitsu().Capacity(); got < 1000<<20 || got > 1100<<20 {
		t.Errorf("Fujitsu capacity = %d bytes, want ~1 GB", got)
	}
}

func TestRevolutionMS(t *testing.T) {
	if got := toshiba().RevolutionMS(); got < 16.6 || got > 16.7 {
		t.Errorf("3600 RPM revolution = %v ms, want 16.67", got)
	}
}

func TestChsRanges(t *testing.T) {
	g := fujitsu()
	for _, sector := range []int64{0, 1, 84, 85, 1274, 1275, g.TotalSectors() - 1} {
		if c := g.CylinderOf(sector); c < 0 || c >= g.Cylinders {
			t.Errorf("sector %d: cylinder %d out of range", sector, c)
		}
		if s := g.SectorInTrack(sector); s < 0 || s >= g.SectorsPerTrack {
			t.Errorf("sector %d: sector-in-track %d out of range", sector, s)
		}
	}
}

func TestCylinderOfBoundaries(t *testing.T) {
	g := toshiba()
	spc := int64(g.SectorsPerCyl())
	if got := g.CylinderOf(0); got != 0 {
		t.Errorf("CylinderOf(0) = %d", got)
	}
	if got := g.CylinderOf(spc - 1); got != 0 {
		t.Errorf("CylinderOf(last of cyl 0) = %d", got)
	}
	if got := g.CylinderOf(spc); got != 1 {
		t.Errorf("CylinderOf(first of cyl 1) = %d", got)
	}
	// Clamped at both ends rather than out of range.
	if got := g.CylinderOf(-5); got != 0 {
		t.Errorf("CylinderOf(-5) = %d", got)
	}
	if got := g.CylinderOf(g.TotalSectors() + 100); got != g.Cylinders-1 {
		t.Errorf("CylinderOf(beyond end) = %d", got)
	}
}

func TestShrink(t *testing.T) {
	g := toshiba().Shrink(48)
	if g.Cylinders != 815-48 {
		t.Errorf("Shrink(48).Cylinders = %d", g.Cylinders)
	}
	if g.SectorsPerTrack != 34 || g.TracksPerCyl != 10 {
		t.Error("Shrink changed non-cylinder fields")
	}
}

func TestOrganPipeCylinders(t *testing.T) {
	got := OrganPipeCylinders(10, 5)
	want := []int{12, 13, 11, 14, 10}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestOrganPipeCylindersEven(t *testing.T) {
	got := OrganPipeCylinders(0, 4)
	if len(got) != 4 {
		t.Fatalf("got %d cylinders, want 4", len(got))
	}
	seen := map[int]bool{}
	for _, c := range got {
		if c < 0 || c >= 4 {
			t.Errorf("cylinder %d out of range", c)
		}
		if seen[c] {
			t.Errorf("cylinder %d repeated", c)
		}
		seen[c] = true
	}
	if got[0] != 1 {
		t.Errorf("even-count middle = %d, want lower median 1", got[0])
	}
}

func TestOrganPipeCylindersProperty(t *testing.T) {
	// Every cylinder appears exactly once, and distance from the middle
	// never decreases along the sequence.
	f := func(firstRaw, countRaw uint8) bool {
		first := int(firstRaw)
		count := int(countRaw)%64 + 1
		got := OrganPipeCylinders(first, count)
		if len(got) != count {
			return false
		}
		seen := make(map[int]bool)
		mid := got[0]
		prevDist := 0
		for _, c := range got {
			if c < first || c >= first+count || seen[c] {
				return false
			}
			seen[c] = true
			d := c - mid
			if d < 0 {
				d = -d
			}
			if d < prevDist {
				return false
			}
			prevDist = d
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrganPipeCylindersEmpty(t *testing.T) {
	if got := OrganPipeCylinders(5, 0); got != nil {
		t.Errorf("count 0 should return nil, got %v", got)
	}
	if got := OrganPipeCylinders(5, -3); got != nil {
		t.Errorf("negative count should return nil, got %v", got)
	}
}

func TestBlockSize(t *testing.T) {
	if Block8K.Sectors() != 16 {
		t.Errorf("8K block = %d sectors, want 16", Block8K.Sectors())
	}
	if Block4K.Sectors() != 8 {
		t.Errorf("4K block = %d sectors, want 8", Block4K.Sectors())
	}
	if Block8K.BlocksIn(165) != 10 {
		t.Errorf("BlocksIn(165) = %d", Block8K.BlocksIn(165))
	}
}

func TestReservedRegionSizesMatchPaper(t *testing.T) {
	// Section 5: 48 reserved cylinders on the Toshiba ≈ 8 MB (~1000 8K
	// blocks, ~6% of capacity); 80 cylinders on the Fujitsu ≈ 50 MB (~5%).
	tosh := toshiba()
	resBytes := int64(48) * int64(tosh.SectorsPerCyl()) * SectorSize
	if mb := float64(resBytes) / (1 << 20); mb < 7.5 || mb > 8.5 {
		t.Errorf("Toshiba 48-cylinder reserved region = %.1f MB, want ~8", mb)
	}
	if blocks := Block8K.BlocksIn(int64(48) * int64(tosh.SectorsPerCyl())); blocks < 1000 || blocks > 1030 {
		t.Errorf("Toshiba reserved region holds %d 8K blocks, want ~1018", blocks)
	}
	fuji := fujitsu()
	resBytes = int64(80) * int64(fuji.SectorsPerCyl()) * SectorSize
	if mb := float64(resBytes) / (1 << 20); mb < 45 || mb > 55 {
		t.Errorf("Fujitsu 80-cylinder reserved region = %.1f MB, want ~50", mb)
	}
}

func TestFirstSectorOfCyl(t *testing.T) {
	g := toshiba()
	spc := int64(g.SectorsPerCyl())
	for _, cyl := range []int{0, 1, 47, g.Cylinders - 1} {
		if got := g.FirstSectorOfCyl(cyl); got != int64(cyl)*spc {
			t.Errorf("FirstSectorOfCyl(%d) = %d, want %d", cyl, got, int64(cyl)*spc)
		}
		if g.CylinderOf(g.FirstSectorOfCyl(cyl)) != cyl {
			t.Errorf("cylinder %d does not round-trip through its first sector", cyl)
		}
	}
}

func TestBlockSizeBytes(t *testing.T) {
	if Block8K.Bytes() != 8192 {
		t.Errorf("Block8K.Bytes() = %d", Block8K.Bytes())
	}
	if Block4K.Bytes() != 4096 {
		t.Errorf("Block4K.Bytes() = %d", Block4K.Bytes())
	}
}
