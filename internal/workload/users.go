package workload

import (
	"fmt"

	"repro/internal/fs"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// UsersConfig carries what callers vary about the users (home
// directories) workload: its size, its window and its seed. The shape
// of the generator is the constants below.
type UsersConfig struct {
	// Users is the number of home directories; zero selects 10 (the
	// paper's Toshiba configuration; 20 on the Fujitsu).
	Users int
	// FilesPerUser is the initial file count per home directory; zero
	// selects 40.
	FilesPerUser int
	// WindowMS shortens the active window for tests; zero selects the
	// full 7am–10pm window.
	WindowMS float64
	// Seed seeds the workload's private generator.
	Seed uint64
}

// The generator's shape: constants, like the system workload's.
const (
	// usersSubdirs is the number of project subdirectories in each home
	// directory. FFS spreads directories across cylinder groups, so a
	// user's files span several disk regions, as grown home directories
	// do.
	usersSubdirs = 4
	// usersThinkMeanMS is a user's mean pause between operations: 90 s
	// (the users disk is much more lightly loaded than the system disk
	// — Table 5's waiting times are small).
	usersThinkMeanMS = 90_000.0
	// usersTheta is the Zipf skew of a user's file popularity — a user
	// works mostly in a current project's files, but the aggregate
	// stream is still much flatter than the system file system's
	// (Figure 7).
	usersTheta = 1.25
	// usersActiveProb is the probability a user is active on a given
	// day.
	usersActiveProb = 0.7
	// usersDriftProb and usersJumps control day-to-day drift:
	// adjacent-rank swap probability and random rank relocations per
	// user per day — heavier drift than the system workload (whose
	// predictions the paper found more reliable, Section 5.3), but slow
	// enough that one day still predicts the next usefully.
	usersDriftProb = 0.10
	usersJumps     = 2
	// usersSizeMu, usersSizeSigma parameterize the lognormal file size.
	usersSizeMu, usersSizeSigma = 0.9, 0.7
)

func (c UsersConfig) withDefaults() UsersConfig {
	if c.Users <= 0 {
		c.Users = 10
	}
	if c.FilesPerUser <= 0 {
		c.FilesPerUser = 40
	}
	if c.WindowMS <= 0 {
		c.WindowMS = DayEndMS - DayStartMS
	}
	if c.Seed == 0 {
		c.Seed = 0x0DD5
	}
	return c
}

// user is one home directory's state.
type user struct {
	dir     string
	subdirs []string
	files   []fileRef
	perm    []int
	created int // counter for unique names
	active  bool
}

// Users is the read/write home-directory workload.
type Users struct {
	eng  *sim.Engine
	f    *fs.FS
	cfg  UsersConfig
	rnd  *sim.Rand
	zipf *sim.Zipf

	users []*user
	day   int
	errs  int64
	hist  *metrics.Histogram
}

// NewUsers returns a users workload over the given file system.
func NewUsers(eng *sim.Engine, f *fs.FS, cfg UsersConfig) *Users {
	cfg = cfg.withDefaults()
	return &Users{
		eng:  eng,
		f:    f,
		cfg:  cfg,
		rnd:  sim.NewRand(cfg.Seed),
		zipf: sim.NewZipf(cfg.FilesPerUser, usersTheta),
	}
}

// Name implements Workload.
func (w *Users) Name() string { return "users" }

// Errors returns the number of failed operations.
func (w *Users) Errors() int64 { return w.errs }

// BindMetrics registers the end-to-end job latency distribution
// (submit to completion per user session, in simulated ms) in reg.
// Only days run after binding are observed.
func (w *Users) BindMetrics(reg *metrics.Registry) {
	w.hist = reg.Histogram("workload_job_ms", metrics.HistogramOpts{})
}

// Populate creates each user's home directory and initial files, then
// starts the update daemon. The mount stays read/write.
func (w *Users) Populate(done func(error)) {
	var mkUser func(u int)
	mkUser = func(u int) {
		if u == w.cfg.Users {
			w.f.Sync(func(err error) {
				if err != nil {
					done(err)
					return
				}
				w.f.StartSyncDaemon()
				done(nil)
			})
			return
		}
		usr := &user{dir: "/" + nameOf("u", u)}
		w.users = append(w.users, usr)
		w.f.Mkdir(usr.dir, func(_ fs.Ino, err error) {
			if err != nil {
				done(fmt.Errorf("workload users: %w", err))
				return
			}
			w.populateSubdirs(usr, 0, done, func() {
				w.populateUserFiles(usr, 0, func(err error) {
					if err != nil {
						done(err)
						return
					}
					usr.perm = identity(len(usr.files))
					w.rnd.Shuffle(len(usr.perm), func(a, b int) {
						usr.perm[a], usr.perm[b] = usr.perm[b], usr.perm[a]
					})
					mkUser(u + 1)
				})
			})
		})
	}
	mkUser(0)
}

// populateSubdirs creates a user's project subdirectories.
func (w *Users) populateSubdirs(usr *user, i int, done func(error), next func()) {
	if i == usersSubdirs {
		next()
		return
	}
	path := usr.dir + "/" + nameOf("p", i)
	w.f.Mkdir(path, func(_ fs.Ino, err error) {
		if err != nil {
			done(fmt.Errorf("workload users: %w", err))
			return
		}
		usr.subdirs = append(usr.subdirs, path)
		w.populateSubdirs(usr, i+1, done, next)
	})
}

func (w *Users) populateUserFiles(usr *user, i int, done func(error)) {
	if i == w.cfg.FilesPerUser {
		done(nil)
		return
	}
	path := usr.subdirs[i%len(usr.subdirs)] + "/" + nameOf("f", i)
	blocks := sizeBlocks(w.rnd, usersSizeMu, usersSizeSigma, w.f.MaxFileBlocks())
	w.f.Create(path, func(ino fs.Ino, err error) {
		if err != nil {
			done(fmt.Errorf("workload users: creating %s: %w", path, err))
			return
		}
		h, _ := w.f.OpenIno(ino)
		h.WriteAt(0, blocks, func(err error) {
			if err != nil {
				done(err)
				return
			}
			usr.files = append(usr.files, fileRef{ino: ino, blocks: blocks, path: path})
			w.populateUserFiles(usr, i+1, done)
		})
	})
}

// pickFile draws one of a user's files by that user's popularity order.
func (w *Users) pickFile(usr *user) fileRef {
	rank := w.zipf.Rank(w.rnd) % len(usr.perm)
	return usr.files[usr.perm[rank]]
}

// RunDay implements Workload. Each active user runs a closed loop of
// sessions: mostly reads, some edits (read + overwrite + growth), file
// creations, and occasional deletions — the mix that gives the users
// file system its flatter, faster-drifting reference stream.
func (w *Users) RunDay(day int, done func(error)) {
	for w.day < day {
		for _, usr := range w.users {
			drift(w.rnd, usr.perm, usersDriftProb)
			jump(w.rnd, usr.perm, usersJumps)
		}
		w.day++
	}
	var actives []*user
	for _, usr := range w.users {
		usr.active = w.rnd.Bool(usersActiveProb)
		if usr.active {
			actives = append(actives, usr)
		}
	}
	if len(actives) == 0 {
		actives = w.users[:1]
	}
	start := float64(day)*DayMS + DayStartMS
	end := start + w.cfg.WindowMS
	pool := &clientPool{
		eng:   w.eng,
		rnd:   w.rnd.Split(),
		n:     len(actives),
		think: usersThinkMeanMS,
		hist:  w.hist,
		job: func(c int, next func()) {
			w.session(actives[c], next)
		},
	}
	pool.run(start, end, done)
}

// session performs one user operation.
func (w *Users) session(usr *user, next func()) {
	errf := func(err error) {
		if err != nil {
			w.errs++
		}
	}
	switch p := w.rnd.Float64(); {
	case p < 0.50: // read session: two files, interleaved (grep, make)
		a := w.pickFile(usr)
		if w.rnd.Bool(0.2) {
			readWhole(w.f, a, errf, next)
			return
		}
		b := w.pickFile(usr)
		readPair(w.f, a, b, errf, next)
	case p < 0.80: // edit: read (with an include), overwrite, maybe grow
		ref := w.pickFile(usr)
		h, err := w.f.OpenIno(ref.ino)
		if err != nil {
			errf(err)
			next()
			return
		}
		n := h.SizeBlocks()
		if n == 0 {
			next()
			return
		}
		other := w.pickFile(usr)
		readPair(w.f, ref, other, errf, func() {
			span := int64(w.rnd.Intn(int(n))) + 1
			at := int64(0)
			if span < n {
				at = w.rnd.Int63n(n - span + 1)
			}
			h.WriteAt(at, span, func(err error) {
				errf(err)
				if w.rnd.Bool(0.3) && n < w.f.MaxFileBlocks()-2 {
					h.Append(1+int64(w.rnd.Intn(2)), func(err error) {
						errf(err)
						next()
					})
					return
				}
				next()
			})
		})
	case p < 0.95: // create a new file and write it
		usr.created++
		path := usr.subdirs[w.rnd.Intn(len(usr.subdirs))] + "/" + nameOf("n", usr.created)
		blocks := sizeBlocks(w.rnd, usersSizeMu, usersSizeSigma, w.f.MaxFileBlocks())
		w.f.Create(path, func(ino fs.Ino, err error) {
			if err != nil {
				errf(err)
				next()
				return
			}
			h, _ := w.f.OpenIno(ino)
			h.WriteAt(0, blocks, func(err error) {
				errf(err)
				usr.files = append(usr.files, fileRef{ino: ino, blocks: blocks, path: path})
				usr.perm = append(usr.perm, len(usr.files)-1)
				next()
			})
		})
	default: // delete the least popular file (keep a floor)
		if len(usr.files) <= w.cfg.FilesPerUser/2 {
			next()
			return
		}
		victimRank := len(usr.perm) - 1
		victimIdx := usr.perm[victimRank]
		ref := usr.files[victimIdx]
		w.f.Remove(ref.path, func(err error) {
			errf(err)
			// Drop the victim from the index structures.
			usr.perm = append(usr.perm[:victimRank], usr.perm[victimRank+1:]...)
			last := len(usr.files) - 1
			if victimIdx != last {
				usr.files[victimIdx] = usr.files[last]
				for r, idx := range usr.perm {
					if idx == last {
						usr.perm[r] = victimIdx
					}
				}
			}
			usr.files = usr.files[:last]
			next()
		})
	}
}
