package driver

import (
	"repro/internal/metrics"
	"repro/internal/seek"
)

// This file implements the driver's monitoring functions (Sections 4.1.4
// and 4.1.5): the request table read by the reference stream analyzer
// and the performance statistics used for evaluation.

// monitor is the fixed-size request table: the original physical
// sector of the block each request targeted, before any redirect, in
// arrival order — all the analyzer reads. When it fills before being
// read, recording is suspended until the next read clears it. The table
// is double-buffered: a read hands out sectors and records on into
// spare, the table the read before handed out. A driver that keeps no
// table has a nil monitor.
type monitor struct {
	sectors   []int64
	spare     []int64
	capacity  int
	suspended int64 // requests missed while the table was full
}

// newMonitor returns a table of capacity entries, or nil for none.
func newMonitor(capacity int) *monitor {
	if capacity <= 0 {
		return nil
	}
	return &monitor{capacity: capacity}
}

func (m *monitor) record(sector int64) {
	if m == nil {
		return
	}
	if len(m.sectors) >= m.capacity {
		m.suspended++
		return
	}
	m.sectors = append(m.sectors, sector)
}

// RequestTableSize is the request table's capacity; zero when the
// driver keeps none.
func (d *Driver) RequestTableSize() int {
	if d.mon == nil {
		return 0
	}
	return d.mon.capacity
}

// ReadRequestTable returns the request table contents — one original
// sector per request, in arrival order — and the number of requests
// missed because the table was full, then clears the table and resumes
// recording: the monitoring ioctl of Section 4.1.4. The returned slice
// is the driver's: it is valid until the next call, which records into
// it again. A driver that keeps no table returns nothing.
func (d *Driver) ReadRequestTable() ([]int64, int64) {
	m := d.mon
	if m == nil {
		return nil, 0
	}
	sectors, missed := m.sectors, m.suspended
	m.sectors, m.spare = m.spare[:0], sectors
	m.suspended = 0
	return sectors, missed
}

// Side holds the statistics for one request direction (reads or writes).
type Side struct {
	// FCFSDist is the seek-distance distribution in arrival order, over
	// original (unrearranged) block addresses: what FCFS service without
	// rearrangement would have seen.
	FCFSDist *DistHist
	// SchedDist is the seek-distance distribution in scheduled order:
	// the head movements that actually occurred.
	SchedDist *DistHist
	// Service is the service-time distribution. Its layout (serviceOpts)
	// has every whole millisecond up to 128 as a bucket boundary, so
	// CountBelow answers at §4.1.5's 1 ms resolution, and its sum keeps
	// full resolution.
	Service *metrics.Histogram
	// QueueMS, RotMS and TransferMS are full-resolution cumulative
	// queueing times and components of the measured service times.
	QueueMS    float64
	RotMS      float64
	TransferMS float64
}

// serviceOpts is the layout of Side.Service.
var serviceOpts = metrics.HistogramOpts{SubBits: 6}

func newSide() *Side {
	return &Side{
		FCFSDist:  &DistHist{},
		SchedDist: &DistHist{},
		Service:   metrics.NewHistogram(serviceOpts),
	}
}

// Count returns the number of completed requests on this side.
func (s *Side) Count() int64 { return s.Service.Count() }

// MeanServiceMS returns the mean measured service time.
func (s *Side) MeanServiceMS() float64 { return s.Service.Mean() }

// MeanQueueingMS returns the mean measured queueing (waiting) time.
func (s *Side) MeanQueueingMS() float64 {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return s.QueueMS / float64(n)
}

// MeanSeekMS computes the mean seek time from the scheduled-order
// distance distribution and a seek curve, as the paper's tables do.
func (s *Side) MeanSeekMS(c seek.Curve) float64 { return s.SchedDist.MeanSeekMS(c) }

// FCFSMeanSeekMS computes the mean seek time the arrival-order
// distances would have produced.
func (s *Side) FCFSMeanSeekMS(c seek.Curve) float64 { return s.FCFSDist.MeanSeekMS(c) }

// MeanRotTransferMS returns the mean rotational latency plus transfer
// time per request (Table 10's metric).
func (s *Side) MeanRotTransferMS() float64 {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return (s.RotMS + s.TransferMS) / float64(n)
}

// merge adds other's samples into s.
func (s *Side) merge(other *Side) {
	s.FCFSDist.Merge(other.FCFSDist)
	s.SchedDist.Merge(other.SchedDist)
	// Every Service has the one layout, serviceOpts, so Merge has no
	// mismatch to report.
	_ = s.Service.Merge(other.Service)
	s.QueueMS += other.QueueMS
	s.RotMS += other.RotMS
	s.TransferMS += other.TransferMS
}

// Stats is the driver's performance-statistics table, kept separately
// for reads and writes as in Section 4.1.5.
type Stats struct {
	ReadSide  *Side
	WriteSide *Side
}

func newStats() *Stats {
	return &Stats{ReadSide: newSide(), WriteSide: newSide()}
}

func (s *Stats) side(write bool) *Side {
	if write {
		return s.WriteSide
	}
	return s.ReadSide
}

// Merge adds other's samples into s, direction by direction: a
// volume's window is its members' statistics merged.
func (s *Stats) Merge(other *Stats) {
	s.ReadSide.merge(other.ReadSide)
	s.WriteSide.merge(other.WriteSide)
}

// All returns a merged view of both directions. The result is a fresh
// copy; mutating it does not affect the driver.
func (s *Stats) All() *Side {
	out := newSide()
	out.merge(s.ReadSide)
	out.merge(s.WriteSide)
	return out
}

// ReadStats returns a snapshot of the statistics and clears them — the
// performance-monitoring ioctl, which also clears the table.
func (d *Driver) ReadStats() *Stats {
	out := d.stats
	d.stats = newStats()
	// Arrival-order tracking restarts with the new window.
	d.haveFCFSPrev = false
	return out
}

// PeekStats returns the live statistics without clearing them. Intended
// for tests and progress displays.
func (d *Driver) PeekStats() *Stats { return d.stats }

// DistHist is a seek-distance distribution: counts of seeks by distance
// in cylinders. The counts are dense, indexed by distance: a distance is
// bounded by the disk's cylinder count, so the slice stops growing after
// the first long seeks and Add is an indexed increment.
type DistHist struct {
	counts []int64 // counts[d] seeks of d cylinders
	n      int64
	sum    int64
}

// Add records one seek of distance d cylinders (|d| is used).
func (h *DistHist) Add(d int) {
	if d < 0 {
		d = -d
	}
	if d >= len(h.counts) {
		h.grow(d + 1)
	}
	h.counts[d]++
	h.n++
	h.sum += int64(d)
}

// grow extends counts to n distances, keeping Add's common path small.
func (h *DistHist) grow(n int) {
	h.counts = append(h.counts, make([]int64, n-len(h.counts))...)
}

// Count returns the number of seeks recorded.
func (h *DistHist) Count() int64 { return h.n }

// MeanDist returns the mean seek distance in cylinders.
func (h *DistHist) MeanDist() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// ZeroFrac returns the fraction of zero-length seeks.
func (h *DistHist) ZeroFrac() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.counts[0]) / float64(h.n)
}

// MeanSeekMS applies a seek-time curve to the distance distribution and
// returns the mean seek time in milliseconds. This is how the paper
// derives all of its reported seek times (Section 5.2). The sum runs in
// ascending distance order, so the result is reproducible to the bit.
func (h *DistHist) MeanSeekMS(c seek.Curve) float64 {
	if h.n == 0 {
		return 0
	}
	var sum float64
	for d, cnt := range h.counts {
		if cnt > 0 {
			sum += float64(float64(cnt) * c.SeekMS(d))
		}
	}
	return sum / float64(h.n)
}

// Merge adds all seeks of other into h.
func (h *DistHist) Merge(other *DistHist) {
	if len(other.counts) > len(h.counts) {
		h.grow(len(other.counts))
	}
	for d, c := range other.counts {
		h.counts[d] += c
	}
	h.n += other.n
	h.sum += other.sum
}
