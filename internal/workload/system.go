package workload

import (
	"fmt"

	"repro/internal/fs"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// SystemConfig parameterizes the system file system workload.
type SystemConfig struct {
	// Files is the number of executables and libraries; zero selects
	// 600.
	Files int
	// Dirs is the number of top-level directories (/bin, /lib,
	// /local/bin, man page directories, ...); zero selects 24, which
	// spreads the tree — and its per-group inode blocks — across the
	// disk as a grown installation would.
	Dirs int
	// Clients is the number of NFS client workstations issuing jobs;
	// zero selects the paper's 14.
	Clients int
	// ThinkMeanMS is a client's mean pause between job launches; zero
	// selects 15 s.
	ThinkMeanMS float64
	// Theta is the Zipf skew of file popularity; zero selects 1.9
	// (calibrated, together with a deliberately small server buffer
	// cache, so the 100 hottest blocks absorb ~85-90% of disk requests
	// and fewer than ~2000 distinct blocks are touched — Figure 5).
	Theta float64
	// Libs is the number of shared-library files drawn on every job
	// launch in addition to the executable; zero selects 3.
	Libs int
	// Parallel is the number of outstanding block reads a job keeps in
	// flight (the NFS client's biod daemons can issue concurrent
	// requests). Zero selects 1: serial demand paging, which matches
	// the paper's low read waiting times.
	Parallel int
	// SizeMu, SizeSigma parameterize the lognormal file size in blocks;
	// zeros select (1.1, 0.8): median ~3 blocks, tail to dozens.
	SizeMu, SizeSigma float64
	// DriftProb is the per-day probability of adjacent popularity-rank
	// swaps; zero selects 0.05 (slowly changing, per the paper).
	DriftProb float64
	// CronPeriodMS is the period of the housekeeping sweep (the hourly
	// cron find/updatedb pass every 1990s UNIX server ran): it lists
	// every directory and reads a sample of cold files, generating the
	// long-seek reads and metadata write bursts of real servers. Zero
	// selects one hour; negative disables the sweep.
	CronPeriodMS float64
	// WindowMS shortens the active window for tests; zero selects the
	// full 7am–10pm window.
	WindowMS float64
	// Seed seeds the workload's private generator.
	Seed uint64
}

func (c SystemConfig) withDefaults() SystemConfig {
	if c.Files <= 0 {
		c.Files = 600
	}
	if c.Dirs <= 0 {
		c.Dirs = 24
	}
	if c.Clients <= 0 {
		c.Clients = 14
	}
	if c.ThinkMeanMS <= 0 {
		c.ThinkMeanMS = 15_000
	}
	if c.Theta == 0 {
		c.Theta = 1.9
	}
	if c.Libs <= 0 {
		c.Libs = 3
	}
	if c.Parallel <= 0 {
		c.Parallel = 1
	}
	if c.SizeMu == 0 {
		c.SizeMu = 1.1
	}
	if c.SizeSigma == 0 {
		c.SizeSigma = 0.8
	}
	if c.DriftProb == 0 {
		c.DriftProb = 0.05
	}
	if c.CronPeriodMS == 0 {
		c.CronPeriodMS = HourMS
	}
	if c.WindowMS <= 0 {
		c.WindowMS = DayEndMS - DayStartMS
	}
	if c.Seed == 0 {
		c.Seed = 0x5E51
	}
	return c
}

// System is the read-only executables-and-libraries workload.
type System struct {
	eng  *sim.Engine
	f    *fs.FS
	cfg  SystemConfig
	rnd  *sim.Rand
	zipf *sim.Zipf

	files []fileRef
	dirs  []string
	perm  []int // popularity rank -> file index
	day   int

	errs int64
	hist *metrics.Histogram
}

// NewSystem returns a system workload over the given file system.
func NewSystem(eng *sim.Engine, f *fs.FS, cfg SystemConfig) *System {
	cfg = cfg.withDefaults()
	return &System{
		eng:  eng,
		f:    f,
		cfg:  cfg,
		rnd:  sim.NewRand(cfg.Seed),
		zipf: sim.NewZipf(cfg.Files, cfg.Theta),
	}
}

// Name implements Workload.
func (w *System) Name() string { return "system" }

// Errors returns the number of failed operations (0 in a healthy run).
func (w *System) Errors() int64 { return w.errs }

// BindMetrics registers the end-to-end job latency distribution
// (submit to completion per client operation, in simulated ms) in reg.
// Only days run after binding are observed.
func (w *System) BindMetrics(reg *metrics.Registry) {
	w.hist = reg.Histogram("workload_job_ms", metrics.HistogramOpts{})
}

// Files returns the number of populated files.
func (w *System) Files() int { return len(w.files) }

// Populate builds the directory tree and writes every file, then sets
// the file system read-only and starts the update daemon — the state of
// a freshly-installed NFS server.
func (w *System) Populate(done func(error)) {
	dirs := make([]string, w.cfg.Dirs)
	for i := range dirs {
		dirs[i] = "/" + nameOf("dir", i)
	}
	w.dirs = dirs
	var mkdirs func(i int)
	mkdirs = func(i int) {
		if i == len(dirs) {
			w.populateFiles(dirs, 0, done)
			return
		}
		w.f.Mkdir(dirs[i], func(_ fs.Ino, err error) {
			if err != nil {
				done(fmt.Errorf("workload system: %w", err))
				return
			}
			mkdirs(i + 1)
		})
	}
	mkdirs(0)
}

func (w *System) populateFiles(dirs []string, i int, done func(error)) {
	if i == w.cfg.Files {
		w.perm = identity(len(w.files))
		// Popularity is unrelated to creation order.
		w.rnd.Shuffle(len(w.perm), func(a, b int) { w.perm[a], w.perm[b] = w.perm[b], w.perm[a] })
		w.f.Sync(func(err error) {
			if err != nil {
				done(err)
				return
			}
			w.f.SetReadOnly(true)
			w.f.StartSyncDaemon()
			done(nil)
		})
		return
	}
	path := dirs[i%len(dirs)] + "/" + nameOf("f", i)
	blocks := sizeBlocks(w.rnd, w.cfg.SizeMu, w.cfg.SizeSigma, w.f.MaxFileBlocks())
	w.f.Create(path, func(ino fs.Ino, err error) {
		if err != nil {
			done(fmt.Errorf("workload system: creating %s: %w", path, err))
			return
		}
		h, _ := w.f.OpenIno(ino)
		h.WriteAt(0, blocks, func(err error) {
			if err != nil {
				done(fmt.Errorf("workload system: writing %s: %w", path, err))
				return
			}
			w.files = append(w.files, fileRef{ino: ino, blocks: blocks})
			w.populateFiles(dirs, i+1, done)
		})
	})
}

// pick draws a file by popularity. topFrac > 0 restricts the draw to the
// most popular fraction (shared libraries live at the top of the
// popularity order).
func (w *System) pick(topFrac float64) fileRef {
	rank := w.zipf.Rank(w.rnd)
	if topFrac > 0 {
		limit := int(float64(len(w.perm)) * topFrac)
		if limit < 1 {
			limit = 1
		}
		rank %= limit
	}
	return w.files[w.perm[rank]]
}

// RunDay implements Workload: each client repeatedly "launches a job" —
// reading one executable and a few shared libraries in quick succession,
// the interleaved multi-file read pattern that scatters hot blocks
// across the request stream (Section 1.1).
func (w *System) RunDay(day int, done func(error)) {
	for w.day < day {
		drift(w.rnd, w.perm, w.cfg.DriftProb)
		w.day++
	}
	start := float64(day)*DayMS + DayStartMS
	end := start + w.cfg.WindowMS
	if w.cfg.CronPeriodMS > 0 {
		for t := start + w.cfg.CronPeriodMS/2; t < end; t += w.cfg.CronPeriodMS {
			t := t
			w.eng.At(t, func() { w.cronSweep() })
		}
	}
	pool := &clientPool{
		eng:   w.eng,
		rnd:   w.rnd.Split(),
		n:     w.cfg.Clients,
		think: w.cfg.ThinkMeanMS,
		hist:  w.hist,
		job: func(_ int, next func()) {
			// One job: the executable plus Libs shared libraries. The
			// process demand-pages them together, so the block reads of
			// the different files interleave — which is exactly how hot
			// blocks of different files come to alternate in the disk's
			// request stream (Section 1.1 of the paper).
			exec := w.pick(0)
			refs := append(make([]fileRef, 0, 1+w.cfg.Libs), exec)
			for l := 0; l < w.cfg.Libs; l++ {
				refs = append(refs, w.pick(0.1))
			}
			// The exec itself is found by a path walk (dirtying
			// directory access times); the libraries are reached via
			// the client's cached handles.
			w.f.Open(exec.path, func(_ *fs.Handle, err error) {
				if err != nil {
					w.errs++
				}
				w.runJob(refs, next)
			})
		},
	}
	pool.run(start, end, done)
}

// runJob demand-pages a set of files concurrently: single-block reads
// round-robin across the files, keeping up to cfg.Parallel requests in
// flight (the NFS client's biod daemons), until every file is fully
// read.
func (w *System) runJob(refs []fileRef, next func()) {
	type cursor struct {
		h    *fs.Handle
		pos  int64
		size int64
	}
	cur := make([]cursor, 0, len(refs))
	for _, ref := range refs {
		h, err := w.f.OpenIno(ref.ino)
		if err != nil {
			w.errs++
			continue
		}
		if n := h.SizeBlocks(); n > 0 {
			cur = append(cur, cursor{h: h, size: n})
		}
	}
	if len(cur) == 0 {
		next()
		return
	}
	i := 0
	inflight := 0
	finished := false
	var fill func()
	// One completion callback for every read of the job: it captures no
	// per-read state, so allocating it per ReadAt (tens per job) would
	// only make garbage.
	onRead := func(_ [][]byte, err error) {
		if err != nil {
			w.errs++
		}
		inflight--
		fill()
	}
	fill = func() {
		for inflight < w.cfg.Parallel {
			// Find the next file with blocks remaining, round-robin.
			var c *cursor
			for n := 0; n < len(cur); n++ {
				cand := &cur[(i+n)%len(cur)]
				if cand.pos < cand.size {
					c = cand
					i = (i + n + 1) % len(cur)
					break
				}
			}
			if c == nil {
				if inflight == 0 && !finished {
					finished = true
					next()
				}
				return
			}
			pos := c.pos
			c.pos++
			inflight++
			c.h.ReadAt(pos, 1, onRead)
		}
	}
	fill()
}

// cronSweep is one housekeeping pass: it lists every directory and reads
// a couple of randomly-chosen (usually cold) files per directory — the
// hourly cron/find activity of a period UNIX server. Its directory
// access-time updates dirty metadata across the whole disk, so the next
// update-policy flush is a long write burst.
func (w *System) cronSweep() {
	var dirIdx int
	var sweepDir func()
	sweepDir = func() {
		if dirIdx == len(w.dirs) {
			return
		}
		dir := w.dirs[dirIdx]
		dirIdx++
		w.f.ReadDir(dir, func(names []string, err error) {
			if err != nil {
				w.errs++
				sweepDir()
				return
			}
			// Visit the directory by path (dirtying its atime), then
			// read two random files in full.
			w.f.Lookup(dir, func(_ fs.Ino, err error) {
				if err != nil {
					w.errs++
				}
				ref1 := w.files[w.rnd.Intn(len(w.files))]
				ref2 := w.files[w.rnd.Intn(len(w.files))]
				readWhole(w.f, ref1, func(error) { w.errs++ }, func() {
					readWhole(w.f, ref2, func(error) { w.errs++ }, sweepDir)
				})
			})
		})
	}
	sweepDir()
}
