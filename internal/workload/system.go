package workload

import (
	"fmt"

	"repro/internal/fs"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// SystemConfig carries what callers vary about the system file system
// workload: its size, its load, its window and its seed. The shape of
// the generator is the constants below.
type SystemConfig struct {
	// Files is the number of executables and libraries; zero selects
	// 600.
	Files int
	// Clients is the number of NFS client workstations issuing jobs;
	// zero selects the paper's 14.
	Clients int
	// ThinkMeanMS is a client's mean pause between job launches; zero
	// selects 15 s.
	ThinkMeanMS float64
	// WindowMS shortens the active window for tests; zero selects the
	// full 7am–10pm window.
	WindowMS float64
	// Seed seeds the workload's private generator.
	Seed uint64
}

// The generator's shape: constants, because no caller varies them.
// ROADMAP 4(d) is to fit them to trace data, not to expose them.
const (
	// systemDirs is the number of top-level directories (/bin, /lib,
	// /local/bin, man page directories, ...): 24 spreads the tree — and
	// its per-group inode blocks — across the disk as a grown
	// installation would.
	systemDirs = 24
	// systemTheta is the Zipf skew of file popularity (calibrated,
	// together with a deliberately small server buffer cache, so the
	// 100 hottest blocks absorb ~85-90% of disk requests and fewer than
	// ~2000 distinct blocks are touched — Figure 5).
	systemTheta = 1.9
	// systemLibs is the number of shared-library files drawn on every
	// job launch in addition to the executable.
	systemLibs = 3
	// systemSizeMu, systemSizeSigma parameterize the lognormal file
	// size in blocks: median ~3 blocks, tail to dozens.
	systemSizeMu, systemSizeSigma = 1.1, 0.8
	// systemDriftProb is the per-day probability of adjacent
	// popularity-rank swaps (slowly changing, per the paper).
	systemDriftProb = 0.05
	// systemCronPeriodMS is the period of the housekeeping sweep (the
	// hourly cron find/updatedb pass every 1990s UNIX server ran): it
	// lists every directory and reads a sample of cold files,
	// generating the long-seek reads and metadata write bursts of real
	// servers.
	systemCronPeriodMS = HourMS
)

func (c SystemConfig) withDefaults() SystemConfig {
	if c.Files <= 0 {
		c.Files = 600
	}
	if c.Clients <= 0 {
		c.Clients = 14
	}
	if c.ThinkMeanMS <= 0 {
		c.ThinkMeanMS = 15_000
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

	freeJob *job // pool of job records (see job)
}

// NewSystem returns a system workload over the given file system.
func NewSystem(eng *sim.Engine, f *fs.FS, cfg SystemConfig) *System {
	cfg = cfg.withDefaults()
	return &System{
		eng:  eng,
		f:    f,
		cfg:  cfg,
		rnd:  sim.NewRand(cfg.Seed),
		zipf: sim.NewZipf(cfg.Files, systemTheta),
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
	dirs := make([]string, systemDirs)
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
	blocks := sizeBlocks(w.rnd, systemSizeMu, systemSizeSigma, w.f.MaxFileBlocks())
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
		drift(w.rnd, w.perm, systemDriftProb)
		w.day++
	}
	start := float64(float64(day)*DayMS) + DayStartMS
	end := start + w.cfg.WindowMS
	for t := start + systemCronPeriodMS/2; t < end; t += systemCronPeriodMS {
		w.eng.At(t, w.cronSweep)
	}
	pool := &clientPool{
		eng:   w.eng,
		rnd:   w.rnd.Split(),
		n:     w.cfg.Clients,
		think: w.cfg.ThinkMeanMS,
		hist:  w.hist,
		job:   w.launch,
	}
	pool.run(start, end, done)
}

// launch runs one client job: the executable plus systemLibs shared
// libraries. The process demand-pages them together, so the block reads
// of the different files interleave — which is exactly how hot blocks
// of different files come to alternate in the disk's request stream
// (Section 1.1 of the paper).
func (w *System) launch(_ int, next func()) {
	j := w.getJob()
	j.next = next
	j.refs[0] = w.pick(0)
	for l := 1; l < len(j.refs); l++ {
		j.refs[l] = w.pick(0.1)
	}
	// populateFiles keeps no path in its fileRefs, so the exec's path is
	// "" and this Open resolves to the root: each job reads and
	// atime-dirties the root's inode block and no other directory. The
	// intended path walk to the exec is missing (EXPERIMENTS.md D5;
	// fixing it moves every system golden). The files themselves are
	// reached via cached handles.
	w.f.Open(j.refs[0].path, j.onOpen)
}

// job is one client job in flight: its files and how far each has been
// read. A job demand-pages its files together: single-block reads
// round-robin across the files, one outstanding at a time, until every
// file is fully read, then it calls next. (The NFS client's biod
// daemons could keep several in flight; serial demand paging is what
// matches the paper's low read waiting times.) Jobs are pooled on System with their file list and cursors
// inline and their two callbacks built once, so launching a job and
// demand-paging it allocate nothing.
type job struct {
	w    *System
	free *job // pool link
	next func()
	refs [1 + systemLibs]fileRef // the files launch picked, exec first
	// cur holds the files with blocks left, in job order; i is the one
	// read next. A file leaves cur with its last read, so each read is
	// one step and the order is the round-robin over all the files.
	cur    []cursor
	i      int
	buf    [1 + systemLibs]cursor // cur's storage for a job of the usual size
	onOpen func(*fs.Handle, error)
	onRead func([][]byte, error)
}

// cursor is one file of a job and how far it has been read.
type cursor struct {
	h    *fs.Handle
	pos  int64
	size int64
}

// getJob pops a job record off the pool, building its callbacks on
// first use.
func (w *System) getJob() *job {
	j := w.freeJob
	if j == nil {
		j = &job{w: w}
		j.onOpen = func(_ *fs.Handle, err error) {
			if err != nil {
				j.w.errs++
			}
			j.start(j.refs[:])
		}
		j.onRead = func(_ [][]byte, err error) {
			if err != nil {
				j.w.errs++
			}
			j.readNext()
		}
	} else {
		w.freeJob = j.free
	}
	return j
}

// start opens the job's files and reads the first block.
func (j *job) start(refs []fileRef) {
	j.cur, j.i = j.buf[:0], 0
	for _, ref := range refs {
		h, err := j.w.f.OpenIno(ref.ino)
		if err != nil {
			j.w.errs++
			continue
		}
		if n := h.SizeBlocks(); n > 0 {
			j.cur = append(j.cur, cursor{h: h, size: n})
		}
	}
	j.readNext()
}

// readNext reads the next block round-robin, or ends the job when every
// file is read: next runs, and only then does the record go back to
// the pool.
func (j *job) readNext() {
	if len(j.cur) == 0 {
		j.next()
		w := j.w
		clear(j.buf[:])
		j.cur, j.next = nil, nil
		j.free, w.freeJob = w.freeJob, j
		return
	}
	c := &j.cur[j.i]
	h, pos := c.h, c.pos
	if c.pos++; c.pos == c.size {
		j.cur = append(j.cur[:j.i], j.cur[j.i+1:]...)
	} else {
		j.i++
	}
	if j.i == len(j.cur) {
		j.i = 0
	}
	h.ReadAt(pos, 1, j.onRead)
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
				readWhole(w.f, ref1, func(_ [][]byte, err error) {
					if err != nil {
						w.errs++
					}
					readWhole(w.f, ref2, func(_ [][]byte, err error) {
						if err != nil {
							w.errs++
						}
						sweepDir()
					})
				})
			})
		})
	}
	sweepDir()
}
