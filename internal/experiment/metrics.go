package experiment

import (
	"repro/internal/driver"
	"repro/internal/seek"
	"repro/internal/stats"
)

// Metrics is the set of per-day quantities the paper's tables report.
// Times are milliseconds, distances cylinders.
type Metrics struct {
	Count int64
	// FCFSDist is the mean seek distance had requests been served in
	// arrival order with no rearrangement; Dist is the mean distance
	// actually observed (SCAN order, with any rearrangement).
	FCFSDist float64
	Dist     float64
	// ZeroSeekPct is the percentage of zero-length seeks.
	ZeroSeekPct float64
	// FCFSSeekMS and SeekMS are the corresponding mean seek times,
	// computed from the distance distributions and the disk's seek
	// curve, as the paper does.
	FCFSSeekMS float64
	SeekMS     float64
	// ServiceMS and WaitMS are the measured mean service and queueing
	// times.
	ServiceMS float64
	WaitMS    float64
	// RotTransferMS is the measured mean rotational latency plus
	// transfer time (Table 10's metric).
	RotTransferMS float64
}

// sideMetrics derives Metrics from one direction's statistics.
func sideMetrics(s *driver.Side, curve seek.Curve) Metrics {
	return Metrics{
		Count:         s.Count(),
		FCFSDist:      s.FCFSDist.MeanDist(),
		Dist:          s.SchedDist.MeanDist(),
		ZeroSeekPct:   s.SchedDist.ZeroFrac() * 100,
		FCFSSeekMS:    s.FCFSMeanSeekMS(curve),
		SeekMS:        s.MeanSeekMS(curve),
		ServiceMS:     s.MeanServiceMS(),
		WaitMS:        s.MeanQueueingMS(),
		RotTransferMS: s.MeanRotTransferMS(),
	}
}

// Side selects a direction of a day's statistics.
type Side func(*driver.Stats) *driver.Side

// Side selectors for the tables.
var (
	AllRequests Side = func(s *driver.Stats) *driver.Side { return s.All() }
	ReadsOnly   Side = func(s *driver.Stats) *driver.Side { return s.ReadSide }
)

// Metrics derives the day's metrics for the selected side.
func (d DayResult) Metrics(curve seek.Curve, side Side) Metrics {
	return sideMetrics(side(d.Stats), curve)
}

// OnOffSummary aggregates the daily mean seek, service, and waiting
// times of a set of days into the min/avg/max triples of the paper's
// on/off tables (2, 4, 5, 6).
type OnOffSummary struct {
	Seek, Service, Wait stats.Summary
	Days                int
}

// Summarize builds an OnOffSummary over days for the selected side.
func Summarize(days []DayResult, curve seek.Curve, side Side) OnOffSummary {
	var out OnOffSummary
	for _, d := range days {
		m := d.Metrics(curve, side)
		if m.Count == 0 {
			continue
		}
		out.Seek.Add(m.SeekMS)
		out.Service.Add(m.ServiceMS)
		out.Wait.Add(m.WaitMS)
		out.Days++
	}
	return out
}

// SeekReductionPct returns the percentage reduction of a day's mean seek
// time relative to FCFS arrival order with no rearrangement — the metric
// of Table 7 and Figure 8.
func SeekReductionPct(m Metrics) float64 {
	if m.FCFSSeekMS == 0 {
		return 0
	}
	return (1 - m.SeekMS/m.FCFSSeekMS) * 100
}

// DistReductionPct is the corresponding seek-distance reduction.
func DistReductionPct(m Metrics) float64 {
	if m.FCFSDist == 0 {
		return 0
	}
	return (1 - m.Dist/m.FCFSDist) * 100
}
