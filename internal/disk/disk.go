// Package disk implements a discrete-event model of a SCSI disk drive.
//
// It substitutes for the two physical disks used in the paper's
// experiments (Table 1 of "Adaptive Block Rearrangement Under UNIX"):
// the Toshiba MK156F (135 MB) and the Fujitsu M2266 (1 GB). A disk
// services one request at a time; each service is broken down into
// controller overhead, seek (using the measured curves of Table 1),
// rotational latency (from a deterministic rotational-position model at
// 3600 RPM), and media transfer time. The Fujitsu model additionally
// implements the drive's 256 KB track buffer with read-ahead: reads that
// hit the buffer complete at SCSI bus speed with no mechanical delay
// (Section 5 of the paper).
//
// The model stores real data (sparsely), so higher layers — the file
// system, the block table, block copying — operate on actual bytes and
// can be checked for correctness, not just timing.
package disk

import (
	"bytes"
	"fmt"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/seek"
)

// Model describes a disk drive type: geometry, seek behaviour, and
// controller characteristics.
type Model struct {
	// Name identifies the drive, e.g. "Toshiba MK156F".
	Name string
	// Geom is the physical geometry.
	Geom geom.Geometry
	// Seek maps seek distance in cylinders to seek time in ms.
	Seek seek.Curve
	// OverheadMS is fixed per-request controller + bus arbitration
	// overhead in milliseconds.
	OverheadMS float64
	// HeadSwitchMS is the cost of switching heads between tracks of the
	// same cylinder during a transfer.
	HeadSwitchMS float64
	// TrackBufferKB is the size of the drive's read-ahead buffer in
	// kilobytes; 0 disables the buffer.
	TrackBufferKB int
	// BusMBps is the host transfer rate in MB/s, used for buffer hits.
	BusMBps float64
}

// Toshiba returns the model of the Toshiba MK156F 135 MB SCSI disk
// (Table 1): 815 cylinders, 10 tracks/cylinder, 34 sectors/track,
// 3600 RPM, no track buffer.
func Toshiba() Model {
	return Model{
		Name: "Toshiba MK156F",
		Geom: geom.Geometry{
			Cylinders: 815, TracksPerCyl: 10, SectorsPerTrack: 34, RPM: 3600,
		},
		Seek:         seek.ToshibaMK156F,
		OverheadMS:   2.0,
		HeadSwitchMS: 1.0,
	}
}

// Fujitsu returns the model of the Fujitsu M2266 1 GB SCSI disk
// (Table 1): 1658 cylinders, 15 tracks/cylinder, 85 sectors/track,
// 3600 RPM, with a 256 KB read-ahead track buffer.
func Fujitsu() Model {
	return Model{
		Name: "Fujitsu M2266",
		Geom: geom.Geometry{
			Cylinders: 1658, TracksPerCyl: 15, SectorsPerTrack: 85, RPM: 3600,
		},
		Seek:          seek.FujitsuM2266,
		OverheadMS:    2.0,
		HeadSwitchMS:  1.0,
		TrackBufferKB: 256,
		BusMBps:       4.0,
	}
}

// Timing is the per-request service-time breakdown, all in milliseconds.
type Timing struct {
	OverheadMS float64
	SeekMS     float64
	RotMS      float64
	TransferMS float64
	// SeekDist is the head movement in cylinders (0 for buffer hits).
	SeekDist int
	// BufferHit reports whether a read was satisfied entirely from the
	// drive's read-ahead buffer.
	BufferHit bool
}

// TotalMS returns the total service time of the request.
func (t Timing) TotalMS() float64 {
	return t.OverheadMS + t.SeekMS + t.RotMS + t.TransferMS
}

// pageSectors sizes the store's pages: 16 sectors = 8 KB per page, one
// file system block. chunkPages sizes the chunks of the page table: 256
// slots of 16 bytes, one 4 KB chunk, allocated on the first write that
// materializes a page in it.
const (
	pageSectors = 16
	pageBytes   = pageSectors * geom.SectorSize
	chunkPages  = 256
)

// page is one slot of the store: b is the page's bytes, nil while the
// page is not materialized (it reads as zeros). shared marks a page that
// is not the store's alone — it was lent to a reader, or it is a
// writer's payload kept as it was handed over — so it is never written
// in place again: a write that changes part of it replaces it with a
// copy. The bit lives here, beside the pointer, so the page stays
// exactly 8 KB; and a read lends b without touching the page's memory.
type page struct {
	b      *[pageBytes]byte
	shared bool
}

// chunk is one fixed run of the page table.
type chunk [chunkPages]page

// Disk is a single disk drive instance with mechanical state (head
// position, rotation) and sparse data storage.
type Disk struct {
	model   Model
	headCyl int

	// seekMS is the model's seek curve memoized over every distance the
	// geometry allows, plus the cached single-cylinder time used for
	// cylinder switches mid-transfer. Lookups are bit-identical to the
	// curve (see seek.NewTable), just without the transcendental math on
	// every request.
	seekMS   *seek.Table
	oneCylMS float64

	// chunks is the page table of the sector store, a two-level table
	// indexed by page number (sector/pageSectors): chunk key/chunkPages,
	// slot key%chunkPages. A chunk stays nil until a write materializes a
	// page in it, so an untouched 2 MB of the disk costs one nil pointer.
	chunks []*chunk

	// zeroKept is the start of the last owned (WriteOwned) run writeData
	// found all zeros, and zeroKeptLen its length. An owned payload is
	// never written again, so a run starting there and no longer is
	// zeros too: replayers and the server hand every write one zero
	// buffer, and it is scanned once, not on every write.
	zeroKept    *byte
	zeroKeptLen int

	// Read-ahead buffer state: the half-open sector range currently held
	// in the drive buffer, and the time at which read-ahead stopped
	// advancing (it advances between requests while the drive is idle).
	bufValid      bool
	bufStart      int64
	bufFrontier   int64   // exclusive end at time bufAsOfMS
	bufAsOfMS     float64 // time the frontier was computed
	bufLimit      int64   // read-ahead never passes this sector (cylinder end)
	bufCapSectors int64

	// Counters.
	nReads, nWrites, nBufferHits int64
	cumSeekCyls                  int64

	// faults, when non-nil, is consulted before every device operation
	// and may fail it (media/transient errors) or kill the device
	// (simulated power loss, leaving an in-flight write torn).
	faults *fault.Injector
}

// New returns an initialized disk for the given model with the head
// parked at cylinder 0.
func New(m Model) (*Disk, error) {
	if err := m.Geom.Validate(); err != nil {
		return nil, err
	}
	if m.Seek == nil {
		return nil, fmt.Errorf("disk: model %q has no seek curve", m.Name)
	}
	pages := (m.Geom.TotalSectors() + pageSectors - 1) / pageSectors
	d := &Disk{
		model:  m,
		chunks: make([]*chunk, (pages+chunkPages-1)/chunkPages),
	}
	d.seekMS = seek.NewTable(m.Seek, m.Geom.Cylinders-1)
	d.oneCylMS = d.seekMS.SeekMS(1)
	if m.TrackBufferKB > 0 {
		d.bufCapSectors = int64(m.TrackBufferKB) * 1024 / geom.SectorSize
	}
	return d, nil
}

// MustNew is New, panicking on error. Intended for the package-level
// models, whose geometry is known to be valid.
func MustNew(m Model) *Disk {
	d, err := New(m)
	if err != nil {
		panic(err)
	}
	return d
}

// Model returns the disk's model description.
func (d *Disk) Model() Model { return d.model }

// Geom returns the disk's geometry.
func (d *Disk) Geom() geom.Geometry { return d.model.Geom }

// HeadCylinder returns the cylinder the head is currently positioned at.
func (d *Disk) HeadCylinder() int { return d.headCyl }

// Counters returns the number of read requests, write requests, and
// read-buffer hits serviced so far.
func (d *Disk) Counters() (reads, writes, bufferHits int64) {
	return d.nReads, d.nWrites, d.nBufferHits
}

// SeekCylinders returns the cumulative head movement in cylinders over
// the disk's lifetime — a convergence signal for telemetry probes: as
// rearrangement takes hold, its growth rate falls.
func (d *Disk) SeekCylinders() int64 { return d.cumSeekCyls }

// sectorTimeMS returns the time to pass one sector under the head.
func (d *Disk) sectorTimeMS() float64 {
	return d.model.Geom.RevolutionMS() / float64(d.model.Geom.SectorsPerTrack)
}

// angleAt returns the rotational position at time nowMS as a fraction of
// a revolution in [0, 1).
func (d *Disk) angleAt(nowMS float64) float64 {
	rev := d.model.Geom.RevolutionMS()
	frac := nowMS / rev
	return frac - float64(int64(frac))
}

// rotationalDelayMS returns the time from nowMS until the start of the
// given sector passes under the head.
func (d *Disk) rotationalDelayMS(nowMS float64, sector int64) float64 {
	g := d.model.Geom
	target := float64(g.SectorInTrack(sector)) / float64(g.SectorsPerTrack)
	cur := d.angleAt(nowMS)
	delta := target - cur
	if delta < 0 {
		delta++
	}
	return delta * g.RevolutionMS()
}

// transferMS returns the media transfer time for count sectors starting
// at sector, including head switches between tracks and single-cylinder
// seeks when the transfer crosses a cylinder boundary.
func (d *Disk) transferMS(sector int64, count int) float64 {
	g := d.model.Geom
	t := float64(float64(count) * d.sectorTimeMS())
	first, last := sector, sector+int64(count)-1
	trackSwitches := (last / int64(g.SectorsPerTrack)) - (first / int64(g.SectorsPerTrack))
	cylSwitches := int64(g.CylinderOf(last)) - int64(g.CylinderOf(first))
	trackSwitches -= cylSwitches
	if trackSwitches > 0 {
		t += float64(float64(trackSwitches) * d.model.HeadSwitchMS)
	}
	if cylSwitches > 0 {
		t += float64(float64(cylSwitches) * d.oneCylMS)
	}
	return t
}

// validateRange checks the request range against the disk size.
func (d *Disk) validateRange(sector int64, count int) error {
	if count <= 0 {
		return fmt.Errorf("disk: request for %d sectors", count)
	}
	if sector < 0 || sector+int64(count) > d.model.Geom.TotalSectors() {
		return fmt.Errorf("disk: sector range [%d, %d) outside disk of %d sectors",
			sector, sector+int64(count), d.model.Geom.TotalSectors())
	}
	return nil
}

// advanceBuffer brings the read-ahead frontier forward to time nowMS:
// while the drive was idle it kept reading sectors into its buffer, up
// to buffer capacity and never past the end of the cylinder it was on.
func (d *Disk) advanceBuffer(nowMS float64) {
	if !d.bufValid || nowMS <= d.bufAsOfMS {
		return
	}
	gain := int64((nowMS - d.bufAsOfMS) / d.sectorTimeMS())
	frontier := d.bufFrontier + gain
	if max := d.bufStart + d.bufCapSectors; frontier > max {
		frontier = max
	}
	if frontier > d.bufLimit {
		frontier = d.bufLimit
	}
	d.bufFrontier = frontier
	d.bufAsOfMS = nowMS
}

// bufferCovers reports whether [sector, sector+count) is entirely inside
// the valid buffered range at time nowMS.
func (d *Disk) bufferCovers(nowMS float64, sector int64, count int) bool {
	if !d.bufValid {
		return false
	}
	d.advanceBuffer(nowMS)
	return sector >= d.bufStart && sector+int64(count) <= d.bufFrontier
}

// resetBufferAfterRead primes the read-ahead buffer after a media read
// that covered [sector, sector+count) and completed at endMS.
func (d *Disk) resetBufferAfterRead(sector int64, count int, endMS float64) {
	if d.bufCapSectors == 0 {
		return
	}
	g := d.model.Geom
	endCyl := g.CylinderOf(sector + int64(count) - 1)
	d.bufValid = true
	d.bufStart = sector
	d.bufFrontier = sector + int64(count)
	d.bufAsOfMS = endMS
	d.bufLimit = g.FirstSectorOfCyl(endCyl) + int64(g.SectorsPerCyl())
}

// invalidateBufferRange drops the buffer if a write overlaps it (the
// drive must not serve stale data) and stops read-ahead.
func (d *Disk) invalidateBufferRange(sector int64, count int) {
	if !d.bufValid {
		return
	}
	if sector < d.bufStart+d.bufCapSectors && sector+int64(count) > d.bufStart {
		d.bufValid = false
	}
}

// Read services a read of count sectors starting at sector, beginning at
// time nowMS. It returns the data and the service-time breakdown, and
// updates the head position and buffer state. The data is read-only and
// may be shared: a read of exactly one page-aligned block returns the
// store's own page (the static zero page if it was never written), which
// the store never changes once lent. The caller must not modify it; it
// stays valid for as long as the caller keeps it.
func (d *Disk) Read(nowMS float64, sector int64, count int) ([]byte, Timing, error) {
	if err := d.validateRange(sector, count); err != nil {
		return nil, Timing{}, err
	}
	if fe := d.faults.BeginOp(false, sector, count); fe != nil {
		return nil, Timing{}, fe
	}
	d.nReads++
	if d.bufferCovers(nowMS, sector, count) {
		d.nBufferHits++
		t := Timing{
			OverheadMS: d.model.OverheadMS,
			TransferMS: float64(count*geom.SectorSize) / (d.model.BusMBps * 1024 * 1024) * 1000,
			BufferHit:  true,
		}
		// The mechanism keeps reading ahead during the bus transfer.
		d.advanceBuffer(nowMS + t.TotalMS())
		return d.lend(sector, count), t, nil
	}
	t := d.mechanicalService(nowMS, sector, count)
	d.resetBufferAfterRead(sector, count, nowMS+t.TotalMS())
	return d.lend(sector, count), t, nil
}

// Write services a write of count sectors starting at sector, beginning
// at time nowMS. data is the payload's head: a whole number of sectors,
// no more than count; the rest of the extent is written as zeros. The
// service time is that of the whole extent either way — a caller whose
// extent is mostly zeros (the block table's fixed on-disk slot) need not
// build and hand over the zeros, and the store need not compare them.
// The store copies data; the caller may reuse it once Write returns.
func (d *Disk) Write(nowMS float64, sector int64, count int, data []byte) (Timing, error) {
	return d.write(nowMS, sector, count, data, false)
}

// WriteOwned is Write with ownership transfer: the store keeps every
// whole page of data as that page itself instead of copying it, so the
// caller must never modify data again. Nor does the store, which treats
// a kept page as shared. The block writes of the driver take this path:
// their payloads are the buffer cache's immutable copies of the blocks.
func (d *Disk) WriteOwned(nowMS float64, sector int64, count int, data []byte) (Timing, error) {
	return d.write(nowMS, sector, count, data, true)
}

func (d *Disk) write(nowMS float64, sector int64, count int, data []byte, keep bool) (Timing, error) {
	if err := d.validateRange(sector, count); err != nil {
		return Timing{}, err
	}
	if len(data) > count*geom.SectorSize || len(data)%geom.SectorSize != 0 {
		return Timing{}, fmt.Errorf("disk: write of %d sectors with %d bytes of data (want whole sectors, at most %d bytes)",
			count, len(data), count*geom.SectorSize)
	}
	if fe := d.faults.BeginOp(true, sector, count); fe != nil {
		if fe.Class == fault.Crash {
			// Power died with the write in flight: a deterministic
			// prefix of the data reached the media.
			d.tearWrite(sector, count, data)
		}
		return Timing{}, fe
	}
	d.nWrites++
	d.invalidateBufferRange(sector, count)
	t := d.mechanicalService(nowMS, sector, count)
	d.writeData(sector, data, keep)
	head := len(data) / geom.SectorSize
	d.zeroData(sector+int64(head), count-head)
	return t, nil
}

// mechanicalService computes seek + rotation + transfer for a media
// access and moves the head.
func (d *Disk) mechanicalService(nowMS float64, sector int64, count int) Timing {
	g := d.model.Geom
	targetCyl := g.CylinderOf(sector)
	dist := targetCyl - d.headCyl
	if dist < 0 {
		dist = -dist
	}
	t := Timing{OverheadMS: d.model.OverheadMS, SeekDist: dist}
	d.cumSeekCyls += int64(dist)
	t.SeekMS = d.seekMS.SeekMS(dist)
	seekEnd := nowMS + t.OverheadMS + t.SeekMS
	t.RotMS = d.rotationalDelayMS(seekEnd, sector)
	t.TransferMS = d.transferMS(sector, count)
	d.headCyl = g.CylinderOf(sector + int64(count) - 1)
	return t
}

// pageRun splits a sector range at page boundaries: it returns the page
// holding sector, the byte offset of sector within that page, and how
// many of the count sectors wanted lie in it.
func pageRun(sector int64, count int) (key int64, off, n int) {
	key = sector / pageSectors
	in := int(sector % pageSectors)
	n = pageSectors - in
	if n > count {
		n = count
	}
	return key, in * geom.SectorSize, n
}

// slot returns the store's slot for page key, or nil if no page of its
// chunk was ever materialized (or key is past the disk's end).
func (d *Disk) slot(key int64) *page {
	if i := key / chunkPages; uint64(i) < uint64(len(d.chunks)) {
		if c := d.chunks[i]; c != nil {
			return &c[key%chunkPages]
		}
	}
	return nil
}

// slotAlloc returns the store's slot for page key, allocating its chunk
// if need be. key must be on the disk.
func (d *Disk) slotAlloc(key int64) *page {
	c := d.chunks[key/chunkPages]
	if c == nil {
		c = new(chunk)
		d.chunks[key/chunkPages] = c
	}
	return &c[key%chunkPages]
}

// lend returns count sectors of stored data starting at sector for Read.
// One whole page is lent as it is — the page itself, marked shared, or
// the zero page if it was never materialized — and anything else is
// copied into a fresh buffer.
func (d *Disk) lend(sector int64, count int) []byte {
	if count != pageSectors || sector%pageSectors != 0 {
		return d.readData(sector, count)
	}
	p := d.slot(sector / pageSectors)
	if p == nil || p.b == nil {
		return zeroPage[:]
	}
	// Slicing b, known non-nil, needs no nil check: that check would
	// load the page's first byte, a cache miss lending never needs.
	b := p.b
	p.shared = true
	return b[:]
}

// readData copies count sectors of stored data starting at sector into
// a fresh buffer; unwritten sectors read as zeros.
func (d *Disk) readData(sector int64, count int) []byte {
	out := make([]byte, count*geom.SectorSize)
	for rest := out; count > 0; {
		key, off, n := pageRun(sector, count)
		run := rest[:n*geom.SectorSize]
		if p := d.slot(key); p != nil && p.b != nil {
			copy(run, p.b[off:])
		}
		rest, sector, count = rest[len(run):], sector+int64(n), count-n
	}
	return out
}

// writeData stores data starting at sector, one page run at a time,
// materializing pages (and their chunks) as needed. Writing zeros to a
// page that was never materialized is a no-op: unwritten sectors already
// read as zeros, so a whole-device pass (a RAID rebuild copying a mostly
// empty member onto a spare) materializes nothing in the empty regions.
// With keep, a run that covers a whole page becomes the page, shared
// with the writer; every other run is copied, into a copy of the page if
// the page is shared.
func (d *Disk) writeData(sector int64, data []byte, keep bool) {
	for count := len(data) / geom.SectorSize; count > 0; {
		key, off, n := pageRun(sector, count)
		run := data[:n*geom.SectorSize]
		data, sector, count = data[len(run):], sector+int64(n), count-n
		p := d.slot(key)
		if (p == nil || p.b == nil) && d.isZero(run, keep) {
			continue
		}
		if p == nil {
			p = d.slotAlloc(key)
		}
		switch {
		case keep && n == pageSectors:
			*p = page{b: (*[pageBytes]byte)(run), shared: true}
			continue
		case p.b == nil:
			p.b = new([pageBytes]byte)
		case p.shared:
			p.unshare()
		}
		copy(p.b[off:], run)
	}
}

// isZero reports whether run holds only zeros. An owned run at the
// address of the last owned run found zero is not scanned again; a copied
// run is always scanned, as its caller may have changed it since.
func (d *Disk) isZero(run []byte, keep bool) bool {
	if keep && &run[0] == d.zeroKept && len(run) <= d.zeroKeptLen {
		return true
	}
	if !bytes.Equal(run, zeroPage[:len(run)]) {
		return false
	}
	if keep {
		d.zeroKept, d.zeroKeptLen = &run[0], len(run)
	}
	return true
}

// unshare replaces the shared page with a private copy.
func (p *page) unshare() {
	b := new([pageBytes]byte)
	*b = *p.b
	*p = page{b: b}
}

// zeroData stores count sectors of zeros starting at sector. A page
// never materialized stays absent, a page the range covers whole is
// dropped, and only a partly covered page is cleared — so zeroing costs
// nothing per sector of the store that is already empty.
func (d *Disk) zeroData(sector int64, count int) {
	for count > 0 {
		key, off, n := pageRun(sector, count)
		sector, count = sector+int64(n), count-n
		p := d.slot(key)
		switch {
		case p == nil || p.b == nil:
		case n == pageSectors:
			*p = page{}
		default:
			if p.shared {
				p.unshare()
			}
			clear(p.b[off : off+n*geom.SectorSize])
		}
	}
}

// zeroPage is what an unwritten page reads as, lent to every reader of
// one, and what writeData compares a run against to see that it holds
// only zeros (bytes.Equal compares words, not bytes). Nothing writes it.
var zeroPage [pageBytes]byte

// PeekData returns a copy of the stored contents of a sector range
// without advancing the mechanical model. It is intended for tests and
// tools.
func (d *Disk) PeekData(sector int64, count int) []byte {
	return d.readData(sector, count)
}

// PokeData stores a copy of data at the given sector without any timing
// effects. It is intended for initialization (e.g. writing a label from
// a tool) and tests.
func (d *Disk) PokeData(sector int64, data []byte) error {
	if len(data)%geom.SectorSize != 0 {
		return fmt.Errorf("disk: poke of %d bytes is not sector-aligned", len(data))
	}
	count := len(data) / geom.SectorSize
	if err := d.validateRange(sector, count); err != nil {
		return err
	}
	d.writeData(sector, data, false)
	d.invalidateBufferRange(sector, count)
	return nil
}

// SetFaults attaches a fault injector to the disk. Passing nil detaches
// it (used by recovery harnesses to re-attach a crashed disk cleanly).
// Fault checks happen before any mechanical service, so a plan that
// injects nothing leaves service times untouched.
func (d *Disk) SetFaults(in *fault.Injector) { d.faults = in }

// tearWrite applies the prefix of a count-sector write that made it to
// the media before power was lost: a run of complete sectors plus a
// partial overlay of the next sector, with the split point drawn
// deterministically from the fault plan over the whole extent. Past
// data's end the payload is the zeros Write would have stored. The
// prefix is always copied: a shared page it reaches is replaced.
func (d *Disk) tearWrite(sector int64, count int, data []byte) {
	n := d.faults.TornBytes(count * geom.SectorSize)
	full := n / geom.SectorSize
	head := min(full, len(data)/geom.SectorSize)
	if head > 0 {
		d.writeData(sector, data[:head*geom.SectorSize], false)
	}
	d.zeroData(sector+int64(head), full-head)
	if rem := n % geom.SectorSize; rem > 0 {
		s := sector + int64(full)
		old := d.readData(s, 1)
		if at := full * geom.SectorSize; at < len(data) {
			copy(old[:rem], data[at:at+rem])
		} else {
			clear(old[:rem])
		}
		d.writeData(s, old, false)
	}
	d.invalidateBufferRange(sector, count)
}
