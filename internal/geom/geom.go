// Package geom models disk geometry: the mapping between linear sector
// numbers and (cylinder, track, sector) coordinates, and between file
// system blocks and sectors.
//
// It corresponds to the geometry portion of the UNIX disk label described
// in Section 4.1.1 of "Adaptive Block Rearrangement Under UNIX"
// (Akyürek & Salem). A SCSI disk presents itself as a linear sequence of
// logical sectors; like the paper, we assume sector numbers map directly
// to physical positions.
package geom

import "fmt"

// SectorSize is the size of one disk sector in bytes. Both disks used in
// the paper (Toshiba MK156F and Fujitsu M2266) use 512-byte sectors.
const SectorSize = 512

// Geometry describes the physical layout of a disk.
type Geometry struct {
	// Cylinders is the total number of cylinders on the disk.
	Cylinders int
	// TracksPerCyl is the number of tracks (surfaces) per cylinder.
	TracksPerCyl int
	// SectorsPerTrack is the number of sectors on each track.
	SectorsPerTrack int
	// RPM is the rotational speed in revolutions per minute.
	RPM int
}

// Validate reports an error if any geometry field is non-positive.
func (g Geometry) Validate() error {
	switch {
	case g.Cylinders <= 0:
		return fmt.Errorf("geom: cylinders must be positive, got %d", g.Cylinders)
	case g.TracksPerCyl <= 0:
		return fmt.Errorf("geom: tracks per cylinder must be positive, got %d", g.TracksPerCyl)
	case g.SectorsPerTrack <= 0:
		return fmt.Errorf("geom: sectors per track must be positive, got %d", g.SectorsPerTrack)
	case g.RPM <= 0:
		return fmt.Errorf("geom: RPM must be positive, got %d", g.RPM)
	}
	return nil
}

// SectorsPerCyl returns the number of sectors in one cylinder.
func (g Geometry) SectorsPerCyl() int { return g.TracksPerCyl * g.SectorsPerTrack }

// TotalSectors returns the total number of sectors on the disk.
func (g Geometry) TotalSectors() int64 {
	return int64(g.Cylinders) * int64(g.SectorsPerCyl())
}

// Capacity returns the disk capacity in bytes.
func (g Geometry) Capacity() int64 { return g.TotalSectors() * SectorSize }

// RevolutionMS returns the time of one full platter revolution in
// milliseconds.
func (g Geometry) RevolutionMS() float64 { return 60_000.0 / float64(g.RPM) }

// CylinderOf returns the cylinder that holds the given sector.
func (g Geometry) CylinderOf(sector int64) int {
	if sector < 0 {
		return 0
	}
	c := sector / int64(g.SectorsPerCyl())
	if c >= int64(g.Cylinders) {
		return g.Cylinders - 1
	}
	return int(c)
}

// SectorInTrack returns the sector's index within its track, in
// [0, SectorsPerTrack).
func (g Geometry) SectorInTrack(sector int64) int {
	return int(sector % int64(g.SectorsPerTrack))
}

// FirstSectorOfCyl returns the first linear sector of the given cylinder.
func (g Geometry) FirstSectorOfCyl(cyl int) int64 {
	return int64(cyl) * int64(g.SectorsPerCyl())
}

// Shrink returns a copy of the geometry with n fewer cylinders. It is
// used to construct the virtual (smaller) disk presented to the file
// system when cylinders are hidden for the reserved region (Section
// 4.1.1 of the paper).
func (g Geometry) Shrink(n int) Geometry {
	out := g
	out.Cylinders -= n
	return out
}

// OrganPipeCylinders returns the cylinders of the half-open range
// [first, first+count) ordered by the organ-pipe heuristic: the middle
// cylinder first, then cylinders on alternating sides of the middle,
// working outward. Placement policies fill reserved cylinders in this
// order (Section 2 of the paper).
func OrganPipeCylinders(first, count int) []int {
	if count <= 0 {
		return nil
	}
	out := make([]int, 0, count)
	mid := first + count/2
	if count%2 == 0 {
		mid = first + count/2 - 1 // lower median for even counts
	}
	out = append(out, mid)
	for d := 1; len(out) < count; d++ {
		if c := mid + d; c < first+count {
			out = append(out, c)
		}
		if len(out) == count {
			break
		}
		if c := mid - d; c >= first {
			out = append(out, c)
		}
	}
	return out
}

// BlockSize describes a file system block size in bytes and provides
// conversions to sectors.
type BlockSize int

// Common block sizes. The paper's file systems use 8 KB blocks with 1 KB
// fragments.
const (
	Block4K BlockSize = 4096
	Block8K BlockSize = 8192
)

// Sectors returns the number of sectors in one block.
func (b BlockSize) Sectors() int { return int(b) / SectorSize }

// Bytes returns the block size in bytes.
func (b BlockSize) Bytes() int { return int(b) }

// BlocksIn returns how many whole blocks fit in n sectors.
func (b BlockSize) BlocksIn(sectors int64) int64 { return sectors / int64(b.Sectors()) }
