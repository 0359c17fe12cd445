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
//
// Every experiment, the paper's and the extensions', is one Experiment
// value run by Execute; the matrices behind the registered ids are tables
// of such values.
package experiment

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/fs"
	"repro/internal/hotlist"
	"repro/internal/rig"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/tracein"
	"repro/internal/volume"
	"repro/internal/workload"
)

// Source names what drives an experiment's stack. It also fixes how the
// experiment is measured: the file-system workloads run the paper's
// protocol of days and overnight rearrangements, tenants one traffic
// window, a trace a learning replay (when rearranging) and a measured one.
type Source string

const (
	// System and Users are the paper's two file-server workloads, each on
	// one file system of its own.
	System Source = "system"
	Users  Source = "users"
	// SystemAndUsers runs both at once, as two partitions of one disk
	// sharing one reserved region — the configuration Section 4.1.1
	// describes and the paper never measures.
	SystemAndUsers Source = "system+users"
	// Tenants is the open-loop heavy-tailed tenant population issuing
	// block requests through the server front end; no file system.
	Tenants Source = "tenants"
	// Trace replays a block trace, read from a file or captured from the
	// system workload, on the raw device; no file system.
	Trace Source = "trace"
)

// Experiment describes one experiment: the machine, what drives it and
// how it is measured. The zero value is ten days of the system workload
// on a Toshiba with no rearranger.
type Experiment struct {
	// Name labels the experiment's report row and, after its matrix's
	// prefix, its job.
	Name string
	// Devices are the disks and how they are combined.
	Devices Devices
	// Server puts the multi-tenant front end on the device. The tenants
	// workload is what speaks to it: it gets a default one when nil, and
	// no other source takes one.
	Server *Frontend
	// Workload is what drives the stack.
	Workload Workload
	// Rearrange gives every member disk a rearranger: each learns from
	// its own monitoring table and rearranges its own reserved region.
	// nil runs without.
	Rearrange *Rearrange
	// Days is the number of measured days of a file-system workload;
	// zero selects 10.
	Days int
	// OnPattern reports whether rearrangement is applied for the given
	// day. nil selects the paper's alternation (off, on, off, on, ...).
	// Day 0 is always effectively off: no counts exist before it.
	OnPattern func(day int) bool
	// WindowMS is the measured window: per day for a file-system workload
	// (zero selects the paper's full 7am–10pm), the traffic window of the
	// tenants (zero selects one hour), the length of a captured trace.
	WindowMS float64
	// Seed makes the whole experiment deterministic; zero selects 1.
	Seed uint64

	// model and reservedCyls are Devices.Disk resolved by withDefaults.
	model        disk.Model
	reservedCyls int
}

// Devices describes the disks of an experiment. Every disk carries the
// reserved region the paper gave its model, rearranged or not, so
// layouts are geometry-identical across the rows of a matrix.
type Devices struct {
	// Disk names every member's drive: "toshiba" (the default) or
	// "fujitsu".
	Disk string
	// Layout combines the disks into a volume. Empty is one disk driven
	// directly, with no volume layer; only the tenants, whose server
	// speaks to a volume, read it as a concat.
	Layout volume.Layout
	// Disks is the member count, spares excluded; zero selects 1.
	// StripeUnit and ReadPolicy are as in volume.Options.
	Disks      int
	StripeUnit int
	ReadPolicy volume.ReadPolicy
	// Spare, RebuildRate and ScrubIntervalMS configure the parity
	// layouts' hot spares, rebuild throttle and scrub daemon; zeros keep
	// the volume defaults (no spare, 200 blocks/s, no scrub).
	Spare           int
	RebuildRate     float64
	ScrubIntervalMS float64
	// Faults lists per-member fault plans, spares after the data members;
	// a short list or nil entries leave the rest fault-free, on the
	// zero-overhead path. An active plan wires a deterministic injector
	// into that member's disk and driver, so the run exercises retries,
	// bad-block remapping and crash-safe table writes.
	Faults []*fault.Plan
	// Sched names a single disk's head-scheduling policy ("scan", "fcfs",
	// "cscan", "sstf"); empty is the driver's own SCAN.
	Sched string
	// ReservedFirstCyl places a single disk's reserved region at this
	// first cylinder instead of the center (the reserved-location
	// ablation).
	ReservedFirstCyl int
}

// Frontend configures the multi-tenant server front end.
type Frontend struct {
	// QoSOff disables the per-tenant token buckets.
	QoSOff bool
	// NetLatencyMS and NetBandwidthMBps override the link model (zeros =
	// server defaults: 0.2 ms, 100 MB/s).
	NetLatencyMS     float64
	NetBandwidthMBps float64
}

// Workload describes what drives the stack.
type Workload struct {
	// Source selects the generator; empty selects System.
	Source Source
	// Saturate turns the system workload into a throughput benchmark: see
	// saturateClients and saturateFS.
	Saturate bool

	// Tenants is the tenant population, RatePerSec the aggregate arrival
	// rate (zero selects 20) and ReadFrac the read fraction (zero = the
	// workload's default). Noisy floods from tenant 2 (class bronze, so
	// the victims' classes stay clean) at the workload's default 200
	// req/s.
	Tenants    int
	RatePerSec float64
	ReadFrac   float64
	Noisy      bool

	// TracePath replays this trace file (any tracein format,
	// auto-detected); empty captures WindowMS of the system workload on a
	// Toshiba, the records cmd/tracegen writes. Mode is the replay pacing.
	TracePath string
	Mode      tracein.Mode
	// Copies multiplexes that many address-shifted replicas of the trace
	// at 1/Copies of the original spacing (tracein.Scale); zero selects
	// 1. ShiftBlocks is the per-copy address shift; 0 spreads the copies
	// evenly over the target's address space.
	Copies      int
	ShiftBlocks int64
}

// Rearrange configures the per-member rearrangers.
type Rearrange struct {
	// Policy is the placement policy: "organ-pipe" (the default),
	// "interleaved", "serial", or "cylinder" for the whole-cylinder
	// baseline of [Vongsath 90].
	Policy string
	// Blocks is the number of blocks rearranged per cycle; zero selects
	// the paper's configuration (1018 on the Toshiba, 3500 on the
	// Fujitsu).
	Blocks int
	// HotlistSize bounds the analyzer's reference list; zero selects an
	// exact (unbounded) counter, as the paper's analyzer effectively had
	// ("several thousand reference counts").
	HotlistSize int
	// PollPeriodMS overrides the analyzer's request-table polling period;
	// zero selects the paper's two minutes.
	PollPeriodMS float64
}

// The calibration every run shares. These were per-experiment knobs once;
// nothing ever set one, and the reasons for the values are the reasons
// the tables come out as the paper's do.
const (
	// cacheBlocks sizes the data buffer cache: 4 MB of Sakarya's 32 MB,
	// large enough that hot reads are mostly absorbed in memory — which
	// is what makes the disk-level stream write-heavy and
	// metadata-concentrated, as the paper's tables imply — yet small
	// enough that cold reads still reach the disk.
	cacheBlocks = 512
	// metaCacheBlocks sizes the metadata cache.
	metaCacheBlocks = 512
	// metaSyncPeriodMS is the update-policy period for metadata: SunOS
	// trickled inode updates out more eagerly than the 30 s data sync, and
	// shorter bursts match the paper's off-day scheduled seek distances.
	metaSyncPeriodMS = 5_000
	// pressurePeriodMS and pressureFrac model VM pressure on the data
	// cache (random page steals), which keeps hot blocks re-missing and
	// the disk's read stream skewed.
	pressurePeriodMS = 60_000
	pressureFrac     = 0.10

	// defaultSeed seeds an experiment whose description leaves Seed zero.
	defaultSeed = 1

	// toshibaSlots is the paper's rearranged-block count on the Toshiba:
	// what its 48 reserved cylinders hold beside the block table.
	toshibaSlots = 1018

	// saturateClients thinking saturateThinkMS are deliberately much
	// heavier than the paper's 14 clients / 15 s: a think-time-limited
	// load would hide the spindle count, and the point of a saturated
	// experiment is to keep one disk busy so the scaling is visible.
	saturateClients = 48
	saturateThinkMS = 250
)

// dataCache is the calibrated data cache at the given size.
func dataCache(blocks int, seed uint64) cache.Config {
	return cache.Config{
		CapacityBlocks:   blocks,
		PressurePeriodMS: pressurePeriodMS,
		PressureFrac:     pressureFrac,
		Seed:             seed,
	}
}

// paperFS is the paper's file system: the calibrated caches, mounted
// write-through (NFS) for a users file system.
func paperFS(seed uint64, syncData bool) fs.Params {
	return fs.Params{
		SyncData:  syncData,
		Cache:     dataCache(cacheBlocks, seed),
		MetaCache: cache.Config{CapacityBlocks: metaCacheBlocks, SyncPeriodMS: metaSyncPeriodMS},
	}
}

// saturateFS mounts for a throughput benchmark: noatime (else the heavy
// client pool spends the run re-encoding inode blocks for atime
// bookkeeping) and a small data cache, so most reads miss and the member
// disks stay the bottleneck under test.
func saturateFS(seed uint64) fs.Params {
	return fs.Params{
		NoAtime:   true,
		Cache:     dataCache(128, seed),
		MetaCache: cache.Config{CapacityBlocks: 256, SyncPeriodMS: metaSyncPeriodMS},
	}
}

// captureFS is the file system a trace is captured on: the paper's data
// cache over the cache package's default metadata cache (1024 blocks,
// 30 s sync). tracegen's output and the trace-replay golden are bytes of
// exactly this.
func captureFS(seed uint64) fs.Params {
	return fs.Params{Cache: dataCache(cacheBlocks, seed)}
}

// paperScale is how much the paper rearranged and how many users it had
// on each disk: facts of its experiments, not of the disks.
func paperScale(diskName string) (blocks, users int) {
	if diskName == "fujitsu" {
		return 3500, 20
	}
	return toshibaSlots, 10
}

// everyDayAfterWarmup is the on-pattern of the experiments that
// rearrange after every day but the first.
func everyDayAfterWarmup(day int) bool { return day > 0 }

// withDefaults fills the zero fields, resolves the disk model and checks
// that the parts fit together.
func (e Experiment) withDefaults() (Experiment, error) {
	var err error
	d, w := &e.Devices, &e.Workload
	if e.model, e.reservedCyls, err = rig.PaperDisk(d.Disk); err != nil {
		return e, fmt.Errorf("experiment: %w", err)
	}
	if d.Disk == "" {
		d.Disk = "toshiba"
	}
	if d.Disks <= 0 {
		d.Disks = 1
	}
	switch w.Source {
	case "":
		w.Source = System
	case System, Users, SystemAndUsers, Trace:
	case Tenants:
		if d.Layout == "" {
			d.Layout = volume.Concat
		}
	default:
		return e, fmt.Errorf("experiment: unknown workload source %q (valid: %s, %s, %s, %s, %s)",
			w.Source, System, Users, SystemAndUsers, Tenants, Trace)
	}
	switch {
	case w.Source == SystemAndUsers && d.Layout != "":
		return e, fmt.Errorf("experiment: %s partitions one disk; it cannot run on a %s volume", w.Source, d.Layout)
	case d.Layout == "" && (d.Disks > 1 || d.Spare > 0):
		return e, fmt.Errorf("experiment: %d disks and %d spares need a Devices.Layout to combine them", d.Disks, d.Spare)
	case d.Layout != "" && (d.Sched != "" || d.ReservedFirstCyl != 0):
		return e, fmt.Errorf("experiment: Devices.Sched and ReservedFirstCyl apply to a single disk, not to a %s volume", d.Layout)
	case d.Layout != "" && e.Rearrange != nil && e.Rearrange.HotlistSize > 0:
		return e, fmt.Errorf("experiment: Rearrange.HotlistSize bounds one disk's analyzer; the members of a %s volume would share it", d.Layout)
	case w.Saturate && w.Source != System:
		return e, fmt.Errorf("experiment: Workload.Saturate applies to the %s workload, not %s", System, w.Source)
	case e.Server != nil && w.Source != Tenants:
		return e, fmt.Errorf("experiment: the server front end takes the %s workload, not %s", Tenants, w.Source)
	case w.Source == Tenants && w.Tenants <= 0:
		return e, fmt.Errorf("experiment: Workload.Tenants is %d; the %s workload needs a population", w.Tenants, Tenants)
	}
	if w.Source == Tenants {
		if e.Server == nil {
			e.Server = &Frontend{}
		}
		if w.RatePerSec <= 0 {
			w.RatePerSec = 20
		}
	}
	if w.Copies < 1 {
		w.Copies = 1
	}
	if e.Rearrange != nil {
		r := *e.Rearrange // the caller's stays as it was given
		if r.Policy == "" {
			r.Policy = "organ-pipe"
		}
		if r.Blocks == 0 {
			r.Blocks, _ = paperScale(d.Disk)
		}
		e.Rearrange = &r
	}
	if e.Days <= 0 {
		e.Days = 10
	}
	if e.OnPattern == nil {
		e.OnPattern = func(day int) bool { return day%2 == 1 }
	}
	if e.WindowMS <= 0 {
		e.WindowMS = FullWindowMS
		if w.Source == Tenants {
			e.WindowMS = workload.HourMS
		}
	}
	if e.Seed == 0 {
		e.Seed = defaultSeed
	}
	return e, nil
}

// simDays weighs the experiment's job in simulated days.
func (e Experiment) simDays() float64 {
	switch e.Workload.Source {
	case Tenants:
		return e.WindowMS / workload.DayMS
	case Trace:
		return 1
	}
	return float64(e.Days)
}

// volumeOptions is the volume the devices describe.
func (e Experiment) volumeOptions() volume.Options {
	d := e.Devices
	return volume.Options{
		Layout:          d.Layout,
		Disks:           d.Disks,
		StripeUnit:      d.StripeUnit,
		ReadPolicy:      d.ReadPolicy,
		Spare:           d.Spare,
		RebuildRate:     d.RebuildRate,
		ScrubIntervalMS: d.ScrubIntervalMS,
		Disk:            e.model,
		ReservedCyls:    e.reservedCyls,
		Faults:          d.Faults,
	}
}

// stackSpec is the stack the experiment, its defaults resolved,
// describes. The named parts — scheduler, placement policy — are made
// here, fresh for each run, and an unknown name fails here.
func (e Experiment) stackSpec() (stackSpec, error) {
	var spec stackSpec
	d, w := e.Devices, e.Workload
	if d.Layout != "" {
		o := e.volumeOptions()
		spec.volume = &o
	} else {
		spec.rig = &rig.Options{
			Disk:             e.model,
			ReservedCyls:     e.reservedCyls,
			ReservedFirstCyl: d.ReservedFirstCyl,
		}
		if len(d.Faults) > 0 {
			spec.rig.Fault = d.Faults[0]
		}
		if d.Sched != "" {
			var err error
			if spec.rig.Sched, err = sched.New(d.Sched); err != nil {
				return spec, err
			}
		}
	}
	switch {
	case w.Source == SystemAndUsers:
		// Split the virtual disk ~60/40 between the two file systems.
		g := e.model.Geom
		total := (g.TotalSectors() - int64(e.reservedCyls)*int64(g.SectorsPerCyl())) / 16
		sys := total * 6 / 10
		spec.rig.PartitionBlocks = []int64{sys, total - sys - 16}
		spec.mounts = []mount{{"sys", paperFS(e.Seed, false)}, {"usr", paperFS(e.Seed, true)}}
	case w.Saturate:
		spec.mounts = []mount{{params: saturateFS(e.Seed)}}
	case w.Source == System || w.Source == Users:
		spec.mounts = []mount{{params: paperFS(e.Seed, w.Source == Users)}}
	}
	if s := e.Server; s != nil {
		spec.server = &server.Config{
			Tenants: w.Tenants,
			Net:     server.LinkConfig{LatencyMS: s.NetLatencyMS, BandwidthMBps: s.NetBandwidthMBps},
			QoSOff:  s.QoSOff,
		}
	}
	if r := e.Rearrange; r != nil {
		cfg := core.Config{MaxBlocks: r.Blocks, PollPeriodMS: r.PollPeriodMS}
		if r.Policy == "cylinder" {
			cfg.Policy = core.NewCylinderOrganPipe(e.model.Geom.SectorsPerCyl())
		} else {
			var err error
			if cfg.Policy, err = core.NewPolicy(r.Policy); err != nil {
				return spec, err
			}
		}
		if r.HotlistSize > 0 {
			cfg.Counter = hotlist.NewBounded(r.HotlistSize, hotlist.ReplaceMin)
		}
		spec.rearrange = &cfg
	}
	return spec, nil
}
