// Package rig assembles the standard simulation stack — engine, disk
// model, disk label, and attached driver — used by tests, examples, and
// the experiment harness. It performs the setup that the paper does with
// format/newfs and a reboot: write a (possibly rearranged) label, carve
// partitions, and attach the adaptive driver.
package rig

import (
	"context"
	"fmt"

	"repro/internal/disk"
	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/label"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Options configures a Rig.
type Options struct {
	// Ctx, when non-nil, cancels the rig: the engine's event loop is
	// interrupted once the context is done, so a long RunUntil inside a
	// cancelled job winds down promptly instead of simulating to the
	// horizon. nil means the rig cannot be cancelled.
	Ctx context.Context
	// Eng, when non-nil, builds the rig on an existing engine instead of
	// creating a private one. A multi-disk volume builds one rig per
	// member on the one engine every member shares. The caller owns the
	// engine's interrupt hook; Ctx still gates construction but is not
	// wired into a provided engine.
	Eng *sim.Engine
	// Disk selects the drive model; the zero value selects the Toshiba
	// MK156F.
	Disk disk.Model
	// ReservedCyls hides this many middle cylinders as the reserved
	// region; 0 builds a conventional (non-rearranged) disk.
	ReservedCyls int
	// ReservedFirstCyl places the reserved region at this first cylinder
	// instead of the center (-1 or 0 with a centered default selects the
	// center). Used by the reserved-location ablation.
	ReservedFirstCyl int
	// BlockSize is the file system block size; zero selects 8 KB.
	BlockSize geom.BlockSize
	// Sched is the head-scheduling policy; nil selects SCAN.
	Sched sched.Scheduler
	// PartitionBlocks lists partition sizes in blocks. Empty creates a
	// single partition covering the whole virtual disk.
	PartitionBlocks []int64
	// RequestTableSize sizes the driver's request table for a
	// rearranger to read (driver.Config.RequestTableSize); zero keeps
	// none.
	RequestTableSize int
	// Telemetry, when non-nil and capturing spans, is attached as the
	// driver's event sink so every request lifecycle of this rig is
	// recorded. Callers needing extra consumers compose their own sink
	// with telemetry.Multi and SetSink afterwards.
	Telemetry *telemetry.Collector
	// Fault, when non-nil and active, builds a fault injector from the
	// plan and wires it into both the disk and the driver, enabling
	// retries, bad-block remapping, and crash-safe table writes.
	Fault *fault.Plan
}

// PaperDisk maps a drive name to its model and to the reserved-region
// size the paper gave it: 48 cylinders on the Toshiba MK156F, 80 on the
// Fujitsu M2266. The empty name selects the Toshiba, like Options.Disk.
func PaperDisk(name string) (model disk.Model, reservedCyls int, err error) {
	switch name {
	case "", "toshiba":
		return disk.Toshiba(), 48, nil
	case "fujitsu":
		return disk.Fujitsu(), 80, nil
	}
	return disk.Model{}, 0, fmt.Errorf("rig: unknown disk %q (valid: toshiba, fujitsu)", name)
}

// Rig is an assembled simulation stack.
type Rig struct {
	Eng    *sim.Engine
	Disk   *disk.Disk
	Label  *label.Label
	Driver *driver.Driver
	// Faults is the fault injector wired into the stack, nil unless
	// Options.Fault was set.
	Faults *fault.Injector
	ctx    context.Context
}

// Err returns the rig's cancellation cause: the context error if the
// rig was built with one and it is done, nil otherwise. Run loops call
// this after driving the engine to tell an interrupted simulation from
// a completed one.
func (r *Rig) Err() error {
	if r.ctx == nil {
		return nil
	}
	return r.ctx.Err()
}

// New builds a rig: it creates the disk, writes the label and an empty
// block table, and attaches the driver.
func New(opts Options) (*Rig, error) {
	if opts.Disk.Name == "" {
		opts.Disk = disk.Toshiba()
	}
	if opts.BlockSize == 0 {
		opts.BlockSize = geom.Block8K
	}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	eng := opts.Eng
	if eng == nil {
		eng = sim.NewEngine()
		if ctx := opts.Ctx; ctx != nil {
			eng.SetInterrupt(func() bool { return ctx.Err() != nil })
		}
	}
	dsk, err := disk.New(opts.Disk)
	if err != nil {
		return nil, err
	}

	var lbl *label.Label
	if opts.ReservedCyls > 0 {
		preferred := (opts.Disk.Geom.Cylinders - opts.ReservedCyls) / 2
		if opts.ReservedFirstCyl > 0 {
			preferred = opts.ReservedFirstCyl
		}
		// The region must start on a block boundary or the virtual-disk
		// mapping would let a file system block straddle it.
		firstCyl, aerr := label.AlignedFirstCyl(opts.Disk.Geom, opts.BlockSize.Sectors(), preferred)
		if aerr != nil {
			return nil, aerr
		}
		lbl, err = label.NewRearrangedAt(diskName(opts.Disk), opts.Disk.Geom,
			firstCyl, opts.ReservedCyls)
		if err != nil {
			return nil, err
		}
	} else {
		lbl = label.New(diskName(opts.Disk), opts.Disk.Geom)
	}

	bsec := int64(opts.BlockSize.Sectors())
	// The first block is kept clear of partitions: it holds the label.
	start := bsec
	if len(opts.PartitionBlocks) == 0 {
		size := (lbl.VirtualSectors() - start) / bsec * bsec
		if _, err := lbl.AddPartition(start, size, label.TagFS); err != nil {
			return nil, err
		}
	} else {
		for i, blocks := range opts.PartitionBlocks {
			size := blocks * bsec
			if _, err := lbl.AddPartition(start, size, label.TagFS); err != nil {
				return nil, fmt.Errorf("rig: partition %d: %w", i, err)
			}
			start += size
		}
	}

	if err := driver.InitDisk(dsk, lbl, opts.BlockSize); err != nil {
		return nil, err
	}
	var inj *fault.Injector
	if opts.Fault != nil && opts.Fault.Active() {
		inj = fault.NewInjector(*opts.Fault)
		dsk.SetFaults(inj)
	}
	drv, err := driver.Attach(eng, dsk, driver.Config{
		Sched:            opts.Sched,
		BlockSize:        opts.BlockSize,
		RequestTableSize: opts.RequestTableSize,
		Faults:           inj,
	}, false)
	if err != nil {
		return nil, err
	}
	if opts.Telemetry.SpansEnabled() {
		drv.SetSink(opts.Telemetry)
	}
	return &Rig{Eng: eng, Disk: dsk, Label: lbl, Driver: drv, Faults: inj, ctx: opts.Ctx}, nil
}

// MustNew is New, panicking on error; for tests and examples whose
// options are known to be valid.
func MustNew(opts Options) *Rig {
	r, err := New(opts)
	if err != nil {
		panic(err)
	}
	return r
}

// PartitionBlocks returns the size of partition part in blocks.
func (r *Rig) PartitionBlocks(part int) int64 {
	p, err := r.Label.Partition(part)
	if err != nil {
		return 0
	}
	return p.Size / int64(r.Driver.BlockSize().Sectors())
}

func diskName(m disk.Model) string {
	if len(m.Name) > 24 {
		return m.Name[:24]
	}
	return m.Name
}
