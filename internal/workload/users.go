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

	// Pools of session and read-pair records (see session, pair). They
	// live here, not at package level: jobs run generators concurrently.
	freeSession *session
	freePair    *pair
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
	start := float64(float64(day)*DayMS) + DayStartMS
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

// count counts a failed operation.
func (w *Users) count(err error) {
	if err != nil {
		w.errs++
	}
}

// session is one user operation in flight: which user, what it works
// on, and the continuations of its steps. Sessions are pooled on Users
// with their continuations built once, like the system workload's jobs,
// so a session allocates nothing of its own.
type session struct {
	w    *Users
	free *session // pool link
	usr  *user
	next func()
	// h and n are the edited file and its size; ref is the created
	// file; rank and idx are the deleted file's popularity rank and its
	// index in usr.files.
	h         *fs.Handle
	n         int64
	ref       fileRef
	rank, idx int
	// The continuations, each a method value built once (or a count
	// of the error, then finish).
	finishCB    func()
	overwriteCB func()
	growCB      func(error)
	fillCB      func(fs.Ino, error)
	createdCB   func(error)
	removedCB   func(error)
	endCB       func(error)
	readCB      func([][]byte, error)
}

// getSession pops a session record off the pool, building its
// continuations on first use.
func (w *Users) getSession() *session {
	s := w.freeSession
	if s != nil {
		w.freeSession = s.free
		return s
	}
	s = &session{w: w}
	s.finishCB, s.overwriteCB, s.growCB = s.finish, s.overwrite, s.grow
	s.fillCB, s.createdCB, s.removedCB = s.fill, s.created, s.removed
	s.endCB = func(err error) {
		s.w.count(err)
		s.finish()
	}
	s.readCB = func(_ [][]byte, err error) {
		s.w.count(err)
		s.finish()
	}
	return s
}

// finish ends the session: the record goes back to the pool, and then
// the client's next runs.
func (s *session) finish() {
	w, next := s.w, s.next
	s.usr, s.next, s.h, s.ref = nil, nil, nil, fileRef{}
	s.free, w.freeSession = w.freeSession, s
	next()
}

// session performs one user operation.
func (w *Users) session(usr *user, next func()) {
	s := w.getSession()
	s.usr, s.next = usr, next
	switch p := w.rnd.Float64(); {
	case p < 0.50: // read session: two files, interleaved (grep, make)
		a := w.pickFile(usr)
		if w.rnd.Bool(0.2) {
			readWhole(w.f, a, s.readCB)
			return
		}
		b := w.pickFile(usr)
		w.readPair(a, b, s.finishCB)
	case p < 0.80: // edit: read (with an include), overwrite, maybe grow
		ref := w.pickFile(usr)
		h, err := w.f.OpenIno(ref.ino)
		if err != nil {
			w.count(err)
			s.finish()
			return
		}
		n := h.SizeBlocks()
		if n == 0 {
			s.finish()
			return
		}
		other := w.pickFile(usr)
		s.h, s.n = h, n
		w.readPair(ref, other, s.overwriteCB)
	case p < 0.95: // create a new file and write it
		usr.created++
		path := usr.subdirs[w.rnd.Intn(len(usr.subdirs))] + "/" + nameOf("n", usr.created)
		blocks := sizeBlocks(w.rnd, usersSizeMu, usersSizeSigma, w.f.MaxFileBlocks())
		s.ref = fileRef{blocks: blocks, path: path}
		w.f.Create(path, s.fillCB)
	default: // delete the least popular file (keep a floor)
		if len(usr.files) <= w.cfg.FilesPerUser/2 {
			s.finish()
			return
		}
		s.rank = len(usr.perm) - 1
		s.idx = usr.perm[s.rank]
		w.f.Remove(usr.files[s.idx].path, s.removedCB)
	}
}

// overwrite writes a random span of the file the edit read.
func (s *session) overwrite() {
	w := s.w
	span := int64(w.rnd.Intn(int(s.n))) + 1
	at := int64(0)
	if span < s.n {
		at = w.rnd.Int63n(s.n - span + 1)
	}
	s.h.WriteAt(at, span, s.growCB)
}

// grow follows the overwrite: sometimes the file grows a block or two.
func (s *session) grow(err error) {
	w := s.w
	w.count(err)
	if w.rnd.Bool(0.3) && s.n < w.f.MaxFileBlocks()-2 {
		s.h.Append(1+int64(w.rnd.Intn(2)), s.endCB)
		return
	}
	s.finish()
}

// fill writes the file the session created.
func (s *session) fill(ino fs.Ino, err error) {
	if err != nil {
		s.w.count(err)
		s.finish()
		return
	}
	s.ref.ino = ino
	h, _ := s.w.f.OpenIno(ino)
	h.WriteAt(0, s.ref.blocks, s.createdCB)
}

// created adds the written file to its user's files, least popular.
func (s *session) created(err error) {
	s.w.count(err)
	usr := s.usr
	usr.files = append(usr.files, s.ref)
	usr.perm = append(usr.perm, len(usr.files)-1)
	s.finish()
}

// removed drops the deleted file from its user's index structures.
func (s *session) removed(err error) {
	s.w.count(err)
	usr, rank, idx := s.usr, s.rank, s.idx
	usr.perm = append(usr.perm[:rank], usr.perm[rank+1:]...)
	last := len(usr.files) - 1
	if idx != last {
		usr.files[idx] = usr.files[last]
		for r, i := range usr.perm {
			if i == last {
				usr.perm[r] = idx
			}
		}
	}
	usr.files = usr.files[:last]
	s.finish()
}

// pair is one readPair in flight: two files read with their block reads
// interleaved, and how far each has been read. Records are pooled on
// Users with the read callback built once.
type pair struct {
	w              *Users
	free           *pair // pool link
	ha, hb         *fs.Handle
	na, nb, pa, pb int64
	next           func()
	onRead         func([][]byte, error)
}

// readPair reads two files with their block reads interleaved, the way
// a tool reading a source file and an include (or make touching two
// targets) does, then calls next.
func (w *Users) readPair(a, b fileRef, next func()) {
	ha, errA := w.f.OpenIno(a.ino)
	hb, errB := w.f.OpenIno(b.ino)
	if errA != nil || errB != nil {
		w.count(errA)
		w.count(errB)
		next()
		return
	}
	p := w.freePair
	if p == nil {
		p = &pair{w: w}
		p.onRead = func(_ [][]byte, err error) {
			p.w.count(err)
			p.step()
		}
	} else {
		w.freePair = p.free
	}
	p.ha, p.hb, p.next = ha, hb, next
	p.na, p.nb, p.pa, p.pb = ha.SizeBlocks(), hb.SizeBlocks(), 0, 0
	p.step()
}

// step reads the next block, from a while it is not ahead of b, or ends
// the pair: the record goes back to the pool, and then next runs.
func (p *pair) step() {
	switch {
	case p.pa < p.na && (p.pa <= p.pb || p.pb >= p.nb):
		p.pa++
		p.ha.ReadAt(p.pa-1, 1, p.onRead)
	case p.pb < p.nb:
		p.pb++
		p.hb.ReadAt(p.pb-1, 1, p.onRead)
	default:
		w, next := p.w, p.next
		p.ha, p.hb, p.next = nil, nil, nil
		p.free, w.freePair = w.freePair, p
		next()
	}
}
