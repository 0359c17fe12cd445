// Package experiment reproduces the measurement study of "Adaptive Block
// Rearrangement Under UNIX": every table (2–10) and figure (4–8) of
// Section 5, as multi-day simulations of the file server "Sakarya".
//
// Each experiment assembles the full stack — disk model, adaptive
// driver, FFS-like file system, file-server workload, and the
// rearrangement system — and runs it over simulated days. Reference
// counts measured during one day are used at the end of the day to
// rearrange blocks for the next day's requests, exactly as in the paper;
// the reported seek times are computed from the measured seek-distance
// distributions and the Table 1 curves, also as in the paper.
package experiment

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/fs"
	"repro/internal/hotlist"
	"repro/internal/rig"
	"repro/internal/sched"
	"repro/internal/seek"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Setup describes one multi-day experiment.
type Setup struct {
	// DiskName selects the drive: "toshiba" or "fujitsu".
	DiskName string
	// FSName selects the workload: "system" or "users".
	FSName string
	// Policy is the placement policy; empty selects organ-pipe.
	Policy string
	// Sched is the head-scheduling policy; empty selects SCAN.
	Sched string
	// Blocks is the number of blocks rearranged per cycle; zero selects
	// the paper's configuration (1018 on the Toshiba, 3500 on the
	// Fujitsu).
	Blocks int
	// Days is the number of measured days; zero selects 10.
	Days int
	// OnPattern reports whether rearrangement is applied for the given
	// day. nil selects the paper's alternation (off, on, off, on, ...).
	// Day 0 is always effectively off: no counts exist before it.
	OnPattern func(day int) bool
	// WindowMS is the measured window per day; zero selects the paper's
	// full 7am–10pm (15 h). Tests use shorter windows.
	WindowMS float64
	// Seed makes the whole experiment deterministic; zero selects 1.
	Seed uint64
	// CacheBlocks sizes the data buffer cache; zero selects the
	// calibrated 512 (4 MB of Sakarya's 32 MB): large enough that hot
	// reads are mostly absorbed in memory — which is what makes the
	// disk-level stream write-heavy and metadata-concentrated, as the
	// paper's tables imply — yet small enough that cold reads still
	// reach the disk.
	CacheBlocks int
	// MetaCacheBlocks sizes the metadata cache; zero selects 512.
	MetaCacheBlocks int
	// MetaSyncPeriodMS is the update-policy period for metadata; zero
	// selects 5 s (SunOS trickled inode updates out more eagerly than
	// the 30 s data sync; shorter bursts match the paper's off-day
	// scheduled seek distances).
	MetaSyncPeriodMS float64
	// PressurePeriodMS and PressureFrac model VM pressure on the data
	// cache (random page steals), which keeps hot blocks re-missing and
	// the disk's read stream skewed. Zeros select 60 s and 0.10.
	PressurePeriodMS float64
	PressureFrac     float64
	// ReservedCyls overrides the reserved-region size; zero selects the
	// paper's 48 (Toshiba) or 80 (Fujitsu).
	ReservedCyls int
	// Users overrides the users-workload population; zero selects the
	// paper's 10 (Toshiba) or 20 (Fujitsu).
	Users int
	// Files overrides the system-workload file count; zero selects 600.
	Files int
	// HotlistSize bounds the analyzer's reference list; zero selects an
	// exact (unbounded) counter, as the paper's analyzer effectively
	// had ("several thousand reference counts").
	HotlistSize int
	// PollPeriodMS overrides the analyzer's request-table polling
	// period; zero selects the paper's two minutes.
	PollPeriodMS float64
	// ReservedFirstCyl places the reserved region at this first cylinder
	// instead of the disk's center (the reserved-location ablation).
	ReservedFirstCyl int
	// Fault, when non-nil and active, injects device faults per the plan:
	// the rig wires a deterministic injector into the disk and driver, so
	// the run exercises retries, bad-block remapping, and crash-safe
	// table writes. nil (the default) is the zero-overhead path.
	Fault *fault.Plan
}

// toshibaSlots is the paper's rearranged-block count on the Toshiba:
// what its 48 reserved cylinders hold beside the block table.
const toshibaSlots = 1018

// withDefaults fills the zero fields and resolves the disk model.
func (s Setup) withDefaults() (Setup, disk.Model, error) {
	model, reserved, err := rig.PaperDisk(s.DiskName)
	if err != nil {
		return s, model, fmt.Errorf("experiment: %w", err)
	}
	if s.ReservedCyls == 0 {
		s.ReservedCyls = reserved
	}
	// How much the paper rearranged and how many users it had on each
	// disk are facts of the experiments, not of the disks.
	blocks, users := toshibaSlots, 10
	if s.DiskName == "fujitsu" {
		blocks, users = 3500, 20
	} else {
		s.DiskName = "toshiba"
	}
	if s.Blocks == 0 {
		s.Blocks = blocks
	}
	if s.Users == 0 {
		s.Users = users
	}
	switch s.FSName {
	case "", "system":
		s.FSName = "system"
	case "users":
	default:
		return s, model, fmt.Errorf("experiment: unknown file system %q", s.FSName)
	}
	if s.Policy == "" {
		s.Policy = "organ-pipe"
	}
	if s.Sched == "" {
		s.Sched = "scan"
	}
	if s.Days <= 0 {
		s.Days = 10
	}
	if s.OnPattern == nil {
		s.OnPattern = func(day int) bool { return day%2 == 1 }
	}
	if s.WindowMS <= 0 {
		s.WindowMS = workload.DayEndMS - workload.DayStartMS
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.CacheBlocks <= 0 {
		s.CacheBlocks = 512
	}
	if s.MetaCacheBlocks <= 0 {
		s.MetaCacheBlocks = 512
	}
	if s.MetaSyncPeriodMS <= 0 {
		s.MetaSyncPeriodMS = 5_000
	}
	if s.PressurePeriodMS <= 0 {
		s.PressurePeriodMS = 60_000
	}
	if s.PressureFrac <= 0 {
		s.PressureFrac = 0.10
	}
	return s, model, nil
}

// fsParams is the setup's file system: the calibrated caches, mounted
// write-through (NFS) for a users file system.
func (s Setup) fsParams(syncData bool) fs.Params {
	return fs.Params{
		SyncData: syncData,
		Cache: cache.Config{
			CapacityBlocks:   s.CacheBlocks,
			PressurePeriodMS: s.PressurePeriodMS,
			PressureFrac:     s.PressureFrac,
			Seed:             s.Seed,
		},
		MetaCache: cache.Config{CapacityBlocks: s.MetaCacheBlocks, SyncPeriodMS: s.MetaSyncPeriodMS},
	}
}

// DayResult is one measured day.
type DayResult struct {
	Day int
	// On reports whether the disk was rearranged for this day.
	On bool
	// Stats is the driver's full measurement snapshot for the day.
	Stats *driver.Stats
	// AccessDist is the day's block-access distribution over all
	// requests (hottest first) and ReadDist the distribution over read
	// requests only — the raw material of Figures 5 and 7.
	AccessDist []hotlist.BlockCount
	ReadDist   []hotlist.BlockCount
}

// Run is a completed experiment.
type Run struct {
	Setup Setup
	// Curve is the disk's seek-time function, used to derive seek times
	// from distance distributions.
	Curve seek.Curve
	// Days holds one entry per measured day.
	Days []DayResult
	// WorkloadErrors counts failed file operations (0 in a healthy run).
	WorkloadErrors int64
	// Installed records how many blocks each rearrangement installed.
	Installed []int
	// Counters is the driver's lifetime counter snapshot at the end of
	// the run; its fault fields (Faults, Retries, Remaps, Unrecovered)
	// are nonzero only under an active fault plan.
	Counters driver.Counters
}

// OnDays returns the measured on-days.
func (r *Run) OnDays() []DayResult { return r.filter(true) }

// OffDays returns the measured off-days.
func (r *Run) OffDays() []DayResult { return r.filter(false) }

func (r *Run) filter(on bool) []DayResult {
	var out []DayResult
	for _, d := range r.Days {
		if d.On == on {
			out = append(out, d)
		}
	}
	return out
}

// Execute runs the experiment to completion. The context cancels the
// run: the engine's event loop is interrupted and Execute returns the
// context's error. Each call builds a fully self-contained stack (its
// own engine, disk, file system, and workload), so concurrent Execute
// calls never share mutable state — the property the parallel runner
// relies on.
func Execute(ctx context.Context, s Setup) (*Run, error) {
	s, model, err := s.withDefaults()
	if err != nil {
		return nil, err
	}
	schedPolicy, err := sched.New(s.Sched)
	if err != nil {
		return nil, err
	}
	var policy core.Policy
	if s.Policy == "cylinder" {
		policy = core.NewCylinderOrganPipe(model.Geom.SectorsPerCyl())
	} else {
		policy, err = core.NewPolicy(s.Policy)
		if err != nil {
			return nil, err
		}
	}
	var counter hotlist.Counter
	if s.HotlistSize > 0 {
		counter = hotlist.NewBounded(s.HotlistSize, hotlist.ReplaceMin)
	}
	st, err := newStack(ctx, stackSpec{
		rig: &rig.Options{
			Disk:             model,
			ReservedCyls:     s.ReservedCyls,
			ReservedFirstCyl: s.ReservedFirstCyl,
			Sched:            schedPolicy,
			Fault:            s.Fault,
		},
		mounts: []mount{{params: s.fsParams(s.FSName == "users")}},
		rearrange: &core.Config{
			Policy:       policy,
			Counter:      counter,
			MaxBlocks:    s.Blocks,
			PollPeriodMS: s.PollPeriodMS,
		},
	})
	if err != nil {
		return nil, err
	}
	defer st.finish()
	drv := st.rig.Driver

	w := paperWorkload(st, s.FSName, s.Files, s.Users, s.WindowMS, s.Seed)
	if err := st.await("populate", workload.DayStartMS, w.Populate); err != nil {
		return nil, err
	}

	// The per-day access distributions consume the same event stream
	// telemetry does; compose the counting sink with the collector so
	// both see every request.
	allCnt, readCnt := hotlist.NewExact(), hotlist.NewExact()
	countSink := telemetry.SinkFunc(func(e *telemetry.Event) {
		if e.Kind != telemetry.KindRequest {
			return
		}
		allCnt.Observe(e.Block)
		if !e.Write {
			readCnt.Observe(e.Block)
		}
	})
	if st.col.SpansEnabled() {
		drv.SetSink(telemetry.Multi(countSink, st.col))
	} else {
		drv.SetSink(countSink)
	}
	st.observe(w)

	run := &Run{Setup: s, Curve: model.Seek}
	run.Installed, err = st.runDays(s.Days, s.WindowMS, s.OnPattern, w.RunDay,
		func(int) {
			drv.ReadStats() // discard overnight / populate noise
			allCnt.Reset()
			readCnt.Reset()
		},
		func(day int) {
			run.Days = append(run.Days, DayResult{
				Day:        day,
				On:         s.OnPattern(day) && day > 0,
				Stats:      drv.ReadStats(),
				AccessDist: allCnt.Distribution(),
				ReadDist:   readCnt.Distribution(),
			})
		})
	if err != nil {
		return nil, err
	}
	run.WorkloadErrors = w.Errors()
	run.Counters = drv.Counters()
	return run, nil
}

// paperWorkload makes one of the paper's two file-server workloads,
// "system" or "users", on the stack's first file system. Zero files
// (system) or users (users) select the workload's own default.
func paperWorkload(st *stack, fsName string, files, users int, windowMS float64, seed uint64) interface {
	workload.Workload
	metricsBinder
	Errors() int64
} {
	if fsName == "system" {
		return workload.NewSystem(st.eng, st.fs[0], workload.SystemConfig{Files: files, WindowMS: windowMS, Seed: seed})
	}
	return workload.NewUsers(st.eng, st.fs[0], workload.UsersConfig{Users: users, WindowMS: windowMS, Seed: seed})
}
