package workload

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/sim"
)

// BlockServer is the front end the tenant workload drives: block-level
// reads and writes attributed to a (tenant, class) pair. The server
// package's Server satisfies it; tests can substitute a stub.
type BlockServer interface {
	Read(tenant, class int, blk int64, done driver.DoneFunc)
	Write(tenant, class int, blk int64, done driver.DoneFunc)
}

// TenantConfig parameterizes the multi-tenant open-loop workload.
//
// Unlike the paper's closed-loop client pools (a fixed population that
// waits for each response), tenants arrive open-loop: requests are a
// Poisson process at an aggregate rate, each attributed to a tenant
// drawn from a heavy-tailed (Zipf) popularity order — the large-scale
// shape TraceTracker observes, where the host count is huge but a small
// fraction of tenants generates most of the traffic. Open-loop arrivals
// do not slow down when the server queues, which is what makes
// admission control worth studying.
type TenantConfig struct {
	// Tenants is the tenant population. Popularity rank equals tenant
	// id (tenant 0 is the hottest).
	Tenants int
	// Classes is the number of tenant classes; a tenant's class is its
	// id modulo Classes, decoupling class from popularity. Zero selects
	// 3 (the server's default ladder).
	Classes int
	// RatePerSec is the aggregate arrival rate over all tenants, in
	// requests per simulated second; zero selects 20 — about 60% of a
	// simulated disk's random-I/O capacity, so the healthy baseline
	// stays clearly below saturation.
	RatePerSec float64
	// ReadFrac is the fraction of requests that are reads; zero
	// selects 0.8.
	ReadFrac float64
	// Noisy adds a flooding stream from tenant NoisyTenant at
	// NoisyRatePerSec, in addition to the aggregate stream — the
	// noisy-neighbor scenario. NoisyRatePerSec zero selects 200.
	Noisy           bool
	NoisyTenant     int
	NoisyRatePerSec float64
	// Seed seeds the workload's private generator.
	Seed uint64
}

// The stream's shape, which no caller varies.
const (
	// tenantTheta is the Zipf skew of tenant popularity (heavy-tailed
	// but not degenerate: the top tenant takes a few percent of the
	// traffic).
	tenantTheta = 1.1
	// tenantFootprintBlocks is each tenant's working-set span; requests
	// pick a block within the tenant's own region, itself Zipf-skewed.
	tenantFootprintBlocks = 128
)

func (c TenantConfig) withDefaults() TenantConfig {
	if c.Tenants <= 0 {
		c.Tenants = 1
	}
	if c.Classes <= 0 {
		c.Classes = 3
	}
	if c.RatePerSec <= 0 {
		c.RatePerSec = 20
	}
	if c.ReadFrac == 0 {
		c.ReadFrac = 0.8
	}
	if c.NoisyRatePerSec <= 0 {
		c.NoisyRatePerSec = 200
	}
	if c.Seed == 0 {
		c.Seed = 0x7E4A
	}
	return c
}

// Tenants drives a BlockServer with the open-loop multi-tenant stream.
type Tenants struct {
	eng    *sim.Engine
	srv    BlockServer
	blocks int64
	cfg    TenantConfig
	rnd    *sim.Rand
	nrnd   *sim.Rand // noisy stream's private generator
	zipf   *sim.Zipf // tenant popularity
	fzipf  *sim.Zipf // block popularity within a tenant's footprint

	end         float64
	streams     int // arrival streams still scheduling
	outstanding int
	finished    func(error)

	issued    int64
	responded int64
	failed    int64
	onDone    driver.DoneFunc // one shared completion for every request
}

// NewTenants builds the workload over a server whose backing device
// holds blocks logical blocks.
func NewTenants(eng *sim.Engine, srv BlockServer, blocks int64, cfg TenantConfig) (*Tenants, error) {
	cfg = cfg.withDefaults()
	if blocks <= 0 {
		return nil, fmt.Errorf("workload tenants: device has no blocks")
	}
	if cfg.Noisy && (cfg.NoisyTenant < 0 || cfg.NoisyTenant >= cfg.Tenants) {
		return nil, fmt.Errorf("workload tenants: noisy tenant %d out of range [0, %d)", cfg.NoisyTenant, cfg.Tenants)
	}
	rnd := sim.NewRand(cfg.Seed)
	w := &Tenants{
		eng:    eng,
		srv:    srv,
		blocks: blocks,
		cfg:    cfg,
		rnd:    rnd,
		nrnd:   rnd.Split(),
		zipf:   sim.NewZipf(cfg.Tenants, tenantTheta),
		fzipf:  sim.NewZipf(tenantFootprintBlocks, 1.2),
	}
	w.onDone = func(data []byte, err error) {
		// A tenant keeps nothing of what it read.
		driver.Recycle(data)
		w.responded++
		if err != nil {
			w.failed++
		}
		w.outstanding--
		w.checkDone()
	}
	return w, nil
}

// Name identifies the workload.
func (w *Tenants) Name() string { return "tenants" }

// Issued, Responded and Failed count requests put on the wire,
// responses received (every request gets exactly one), and responses
// carrying an error of any kind — rejections, deadline failures, and
// backend errors alike.
func (w *Tenants) Issued() int64    { return w.issued }
func (w *Tenants) Responded() int64 { return w.responded }
func (w *Tenants) Failed() int64    { return w.failed }

// Run schedules the arrival streams over [start, end) and calls done
// once the last stream has stopped and every outstanding response has
// arrived. Drive the engine afterwards.
func (w *Tenants) Run(start, end float64, done func(error)) {
	w.end = end
	w.finished = done
	w.streams = 1
	w.startStream(w.rnd, start, w.cfg.RatePerSec, -1)
	if w.cfg.Noisy {
		w.streams++
		w.startStream(w.nrnd, start, w.cfg.NoisyRatePerSec, w.cfg.NoisyTenant)
	}
}

// startStream schedules one self-rescheduling Poisson arrival stream.
// tenant >= 0 pins every arrival to that tenant (the noisy neighbor);
// otherwise each arrival draws a tenant by popularity.
func (w *Tenants) startStream(rnd *sim.Rand, start, ratePerSec float64, tenant int) {
	interMS := 1000 / ratePerSec
	var tick func()
	tick = func() {
		if w.eng.Now() >= w.end {
			w.streams--
			w.checkDone()
			return
		}
		t := tenant
		if t < 0 {
			t = w.zipf.Rank(rnd)
		}
		w.issue(rnd, t)
		w.eng.After(rnd.Exp(interMS), tick)
	}
	w.eng.At(start+rnd.Exp(interMS), tick)
}

// issue submits one request for tenant t.
func (w *Tenants) issue(rnd *sim.Rand, t int) {
	class := t % w.cfg.Classes
	// The tenant's region starts at a hash-scattered base so tenant
	// footprints spread over the whole device rather than packing the
	// low addresses.
	base := int64(uint64(t) * 0x9E3779B97F4A7C15 % uint64(w.blocks))
	blk := (base + int64(w.fzipf.Rank(rnd))) % w.blocks
	w.issued++
	w.outstanding++
	if rnd.Bool(w.cfg.ReadFrac) {
		w.srv.Read(t, class, blk, w.onDone)
	} else {
		w.srv.Write(t, class, blk, w.onDone)
	}
}

// checkDone fires the completion callback once all streams have
// stopped and no response is outstanding.
func (w *Tenants) checkDone() {
	if w.streams == 0 && w.outstanding == 0 && w.finished != nil {
		done := w.finished
		w.finished = nil
		done(nil)
	}
}
