package driver

import (
	"repro/internal/seek"
	"repro/internal/stats"
)

// This file implements the driver's monitoring functions (Sections 4.1.4
// and 4.1.5): the request table read by the reference stream analyzer
// and the performance statistics used for evaluation.

// ReqRecord is one entry of the request-monitoring table: the original
// physical address of the block a request targeted (before any
// redirect), the request size in sectors, and the direction.
type ReqRecord struct {
	Sector  int64
	Sectors int
	Write   bool
}

// monitor is the fixed-size request table. When it fills before being
// read, recording is suspended until the next read clears it.
type monitor struct {
	records   []ReqRecord
	capacity  int
	suspended int64 // requests missed while the table was full
}

func newMonitor(capacity int) *monitor {
	return &monitor{capacity: capacity}
}

func (m *monitor) record(sector int64, sectors int, write bool) {
	if len(m.records) >= m.capacity {
		m.suspended++
		return
	}
	m.records = append(m.records, ReqRecord{Sector: sector, Sectors: sectors, Write: write})
}

// ReadRequestTable returns the request table contents and the number of
// requests missed because the table was full, then clears the table and
// resumes recording — the monitoring ioctl of Section 4.1.4.
func (d *Driver) ReadRequestTable() ([]ReqRecord, int64) {
	recs := d.mon.records
	missed := d.mon.suspended
	d.mon.records = nil
	d.mon.suspended = 0
	return recs, missed
}

// Side holds the statistics for one request direction (reads or writes).
type Side struct {
	// FCFSDist is the seek-distance distribution in arrival order, over
	// original (unrearranged) block addresses: what FCFS service without
	// rearrangement would have seen.
	FCFSDist *stats.DistHist
	// SchedDist is the seek-distance distribution in scheduled order:
	// the head movements that actually occurred.
	SchedDist *stats.DistHist
	// Service and Queueing are the time distributions, at 1 ms bucket
	// resolution with full-resolution cumulative sums.
	Service  *stats.TimeHist
	Queueing *stats.TimeHist
	// SeekMS, RotMS and TransferMS are full-resolution cumulative
	// components of the measured service times.
	SeekMS     float64
	RotMS      float64
	TransferMS float64
	// BufferHits counts reads satisfied by the drive's read-ahead buffer.
	BufferHits int64
	// Redirected counts requests that were redirected into the reserved
	// region by the block table.
	Redirected int64
}

func newSide() *Side {
	return &Side{
		FCFSDist:  stats.NewDistHist(),
		SchedDist: stats.NewDistHist(),
		Service:   stats.NewTimeHist(histMaxMS),
		Queueing:  stats.NewTimeHist(histMaxMS),
	}
}

// Count returns the number of completed requests on this side.
func (s *Side) Count() int64 { return s.Service.Count() }

// MeanServiceMS returns the mean measured service time.
func (s *Side) MeanServiceMS() float64 { return s.Service.MeanMS() }

// MeanQueueingMS returns the mean measured queueing (waiting) time.
func (s *Side) MeanQueueingMS() float64 { return s.Queueing.MeanMS() }

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
	// Every time histogram has the one bucket range, histMaxMS, so Merge
	// has no mismatch to report.
	_ = s.Service.Merge(other.Service)
	_ = s.Queueing.Merge(other.Queueing)
	s.SeekMS += other.SeekMS
	s.RotMS += other.RotMS
	s.TransferMS += other.TransferMS
	s.BufferHits += other.BufferHits
	s.Redirected += other.Redirected
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
