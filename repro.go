// Package repro is a Go reproduction of "Adaptive Block Rearrangement"
// (Akyürek & Salem, ICDE 1993), built from the authors' UNIX
// implementation report (CS-TR-3054.1, "Adaptive Block Rearrangement
// Under UNIX").
//
// The library implements the complete system in simulation: seekable
// disk models of the paper's two drives, the modified SCSI device driver
// with its block table and reserved region, an FFS-style file system
// with a buffer cache, the reference stream analyzer and block arranger
// with the paper's three placement policies, and the file-server
// workloads of the evaluation. See DESIGN.md for the system inventory
// and EXPERIMENTS.md for the reproduced tables and figures.
//
// This package is the assembled-stack facade: it wires a disk, driver,
// file system and rearranger together the way the paper's server
// "Sakarya" was set up, and exposes the pieces for direct use. The
// subsystems themselves live in internal/... packages; the cmd/ tools
// and examples/ programs show typical use.
package repro

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/driver"
	"repro/internal/fs"
	"repro/internal/geom"
	"repro/internal/rig"
	"repro/internal/sched"
	"repro/internal/sim"
)

// ServerConfig describes an adaptive file server to assemble.
type ServerConfig struct {
	// DiskModel selects the drive: "toshiba" (MK156F, 135 MB) or
	// "fujitsu" (M2266, 1 GB). Empty selects "toshiba".
	DiskModel string
	// ReservedCyls hides this many middle cylinders as the reserved
	// region; zero selects the paper's 48 (Toshiba) or 80 (Fujitsu).
	ReservedCyls int
	// Policy is the placement policy: "organ-pipe" (default),
	// "interleaved" or "serial".
	Policy string
	// Sched is the head-scheduling policy: "scan" (default), "fcfs",
	// "cscan" or "sstf".
	Sched string
	// MaxBlocks caps how many blocks are rearranged per cycle; zero
	// means as many as fit.
	MaxBlocks int
	// CacheBlocks and MetaCacheBlocks size the file system's data and
	// metadata caches (defaults 512 each).
	CacheBlocks     int
	MetaCacheBlocks int
	// ReadOnly mounts the file system read-only after creation.
	ReadOnly bool
}

// Server is an assembled adaptive file server: simulation engine, disk,
// adaptive driver, file system, and rearrangement controller.
type Server struct {
	Eng        *sim.Engine
	Disk       *disk.Disk
	Driver     *driver.Driver
	FS         *fs.FS
	Rearranger *core.Rearranger
}

// NewServer formats a fresh disk per the configuration, mounts a file
// system on it, and starts the file system's update daemon.
func NewServer(cfg ServerConfig) (*Server, error) {
	model, reserved, err := rig.PaperDisk(cfg.DiskModel)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	if cfg.ReservedCyls == 0 {
		cfg.ReservedCyls = reserved
	}
	if cfg.Policy == "" {
		cfg.Policy = "organ-pipe"
	}
	var schedPolicy sched.Scheduler
	if cfg.Sched != "" {
		schedPolicy, err = sched.New(cfg.Sched)
		if err != nil {
			return nil, err
		}
	}
	r, err := rig.New(rig.Options{
		Disk:         model,
		ReservedCyls: cfg.ReservedCyls,
		Sched:        schedPolicy,
	})
	if err != nil {
		return nil, err
	}
	fsys, err := fs.Newfs(r.Eng, r.Driver, 0, fs.Params{
		Cache:     cache.Config{CapacityBlocks: cfg.CacheBlocks},
		MetaCache: cache.Config{CapacityBlocks: cfg.MetaCacheBlocks},
	})
	if err != nil {
		return nil, err
	}
	r.Eng.Run()
	if cfg.ReadOnly {
		fsys.SetReadOnly(true)
	}
	fsys.StartSyncDaemon()

	policy, err := core.NewPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	rear, err := core.New(r.Eng, r.Driver, core.Config{
		Policy:    policy,
		MaxBlocks: cfg.MaxBlocks,
	})
	if err != nil {
		return nil, err
	}
	return &Server{
		Eng:        r.Eng,
		Disk:       r.Disk,
		Driver:     r.Driver,
		FS:         fsys,
		Rearranger: rear,
	}, nil
}

// RunFor advances simulated time by ms milliseconds, executing all due
// events (the update daemons run forever, so use RunFor rather than the
// engine's Run).
func (s *Server) RunFor(ms float64) {
	s.Eng.RunUntil(s.Eng.Now() + ms)
}

// StartMonitoring begins the reference stream analyzer's periodic
// polling of the driver's request table.
func (s *Server) StartMonitoring() { s.Rearranger.StartMonitoring() }

// StopMonitoring stops polling and drains the final request batch.
func (s *Server) StopMonitoring() { s.Rearranger.StopMonitoring() }

// Rearrange runs one rearrangement cycle with the hot blocks observed
// since the last ResetCounts, then resets the counts for the next
// measurement window. It blocks (in simulated time) until the blocks
// have been copied, and returns how many were installed.
func (s *Server) Rearrange() (int, error) {
	var installed int
	var rerr error
	done := false
	s.Rearranger.Rearrange(func(n int, err error) {
		installed, rerr, done = n, err, true
	})
	for i := 0; !done && i < 10000; i++ {
		s.RunFor(60_000)
	}
	if !done {
		return 0, fmt.Errorf("repro: rearrangement did not complete")
	}
	s.Rearranger.ResetCounts()
	return installed, rerr
}

// Clean empties the reserved region, restoring dirty blocks to their
// original locations.
func (s *Server) Clean() error {
	var cerr error
	done := false
	s.Rearranger.CleanOnly(func(err error) { cerr, done = err, true })
	for i := 0; !done && i < 10000; i++ {
		s.RunFor(60_000)
	}
	if !done {
		return fmt.Errorf("repro: clean did not complete")
	}
	return cerr
}

// Stats returns and clears the driver's measurement tables.
func (s *Server) Stats() *driver.Stats { return s.Driver.ReadStats() }

// BlockSize returns the file system block size in bytes.
func (s *Server) BlockSize() int { return geom.Block8K.Bytes() }
