package workload

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/driver"
	"repro/internal/fs"
	"repro/internal/hotlist"
	"repro/internal/rig"
	"repro/internal/trace"
)

// buildSystem assembles a rig + fs + system workload with a short test
// window and the calibrated small server cache.
func buildSystem(t *testing.T, seed uint64) (*rig.Rig, *fs.FS, *System) {
	t.Helper()
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Newfs(r.Eng, r.Driver, 0, fs.Params{
		Cache: cache.Config{CapacityBlocks: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Eng.Run()
	w := NewSystem(r.Eng, f, SystemConfig{
		Files:    300,
		WindowMS: 1 * HourMS,
		Seed:     seed,
	})
	return r, f, w
}

func populate(t *testing.T, r *rig.Rig, w Workload) {
	t.Helper()
	var perr error
	done := false
	w.Populate(func(err error) { perr, done = err, true })
	r.Eng.RunUntil(2 * HourMS)
	if !done {
		t.Fatal("populate did not complete")
	}
	if perr != nil {
		t.Fatalf("populate: %v", perr)
	}
}

func runDay(t *testing.T, r *rig.Rig, w Workload, day int, windowMS float64) {
	t.Helper()
	var derr error
	done := false
	w.RunDay(day, func(err error) { derr, done = err, true })
	r.Eng.RunUntil(float64(day)*DayMS + DayStartMS + windowMS + 30*60*1000)
	if !done {
		t.Fatal("day did not complete")
	}
	if derr != nil {
		t.Fatalf("day: %v", derr)
	}
}

func TestSystemPopulate(t *testing.T) {
	r, f, w := buildSystem(t, 1)
	populate(t, r, w)
	if w.Files() != 300 {
		t.Errorf("populated %d files", w.Files())
	}
	if !f.ReadOnly() {
		t.Error("system fs not mounted read-only")
	}
	if f.FreeBlocks() >= f.TotalBlocks() {
		t.Error("populate allocated nothing")
	}
}

func TestSystemDayGeneratesSkewedTraffic(t *testing.T) {
	r, _, w := buildSystem(t, 2)
	populate(t, r, w)
	cap := trace.NewCapture(r.Eng, r.Driver)
	runDay(t, r, w, 0, 1*HourMS)
	cap.Close()
	if w.Errors() != 0 {
		t.Errorf("workload errors: %d", w.Errors())
	}
	recs := cap.Records()
	if len(recs) < 5000 {
		t.Fatalf("only %d disk requests in an hour", len(recs))
	}
	cnt := hotlist.NewExact()
	var writes int
	for _, rec := range recs {
		cnt.Observe(rec.Block)
		if rec.Write {
			writes++
		}
	}
	// Read-only mount still writes (inode bookkeeping, Section 3.1).
	if writes == 0 {
		t.Error("no bookkeeping writes on read-only fs")
	}
	if frac := float64(writes) / float64(len(recs)); frac > 0.5 {
		t.Errorf("write fraction %.2f too high for a read-only fs", frac)
	}
	// Figure 5 shape: heavy skew, bounded footprint.
	dist := cnt.Distribution()
	var top100 int64
	for i := 0; i < 100 && i < len(dist); i++ {
		top100 += dist[i].Count
	}
	if frac := float64(top100) / float64(cnt.Total()); frac < 0.70 {
		t.Errorf("top-100 blocks absorb %.2f of requests, want >= 0.70", frac)
	}
	if len(dist) > 3000 {
		t.Errorf("%d distinct blocks touched, want < 3000", len(dist))
	}
}

func TestSystemDeterminism(t *testing.T) {
	capture := func() []trace.Record {
		r, _, w := buildSystem(t, 7)
		populate(t, r, w)
		cap := trace.NewCapture(r.Eng, r.Driver)
		runDay(t, r, w, 0, 1*HourMS)
		cap.Close()
		return cap.Records()
	}
	a, b := capture(), capture()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSystemDriftIsSlow(t *testing.T) {
	r, _, w := buildSystem(t, 3)
	populate(t, r, w)
	before := append([]int(nil), w.perm...)
	runDay(t, r, w, 0, 1*HourMS)
	runDay(t, r, w, 1, 1*HourMS)
	same := 0
	for i := range before {
		if w.perm[i] == before[i] {
			same++
		}
	}
	if frac := float64(same) / float64(len(before)); frac < 0.8 {
		t.Errorf("only %.2f of popularity ranks stable across a day", frac)
	}
}

func buildUsers(t *testing.T, seed uint64) (*rig.Rig, *fs.FS, *Users) {
	t.Helper()
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Newfs(r.Eng, r.Driver, 0, fs.Params{
		Cache: cache.Config{CapacityBlocks: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Eng.Run()
	w := NewUsers(r.Eng, f, UsersConfig{
		Users:        10,
		FilesPerUser: 30,
		WindowMS:     1 * HourMS,
		Seed:         seed,
	})
	return r, f, w
}

func TestUsersPopulate(t *testing.T) {
	r, f, w := buildUsers(t, 1)
	populate(t, r, w)
	if len(w.users) != 10 {
		t.Errorf("%d users", len(w.users))
	}
	if f.ReadOnly() {
		t.Error("users fs must be read/write")
	}
	var names []string
	f.ReadDir("/", func(ns []string, err error) { names = ns })
	r.Eng.RunUntil(r.Eng.Now() + HourMS)
	if len(names) != 10 {
		t.Errorf("%d home directories", len(names))
	}
}

func TestUsersDayMixedTraffic(t *testing.T) {
	r, _, w := buildUsers(t, 2)
	populate(t, r, w)
	cap := trace.NewCapture(r.Eng, r.Driver)
	runDay(t, r, w, 0, 1*HourMS)
	cap.Close()
	if w.Errors() != 0 {
		t.Errorf("workload errors: %d", w.Errors())
	}
	var reads, writes int
	for _, rec := range cap.Records() {
		if rec.Write {
			writes++
		} else {
			reads++
		}
	}
	if reads == 0 || writes == 0 {
		t.Fatalf("reads=%d writes=%d", reads, writes)
	}
	// Users workload writes real data, not just bookkeeping.
	if frac := float64(writes) / float64(reads+writes); frac < 0.1 {
		t.Errorf("write fraction %.2f too low for home directories", frac)
	}
}

func TestUsersFlatterThanSystem(t *testing.T) {
	// Figure 5 vs Figure 7: the users stream is much less skewed.
	top100 := func(recs []trace.Record) float64 {
		cnt := hotlist.NewExact()
		for _, rec := range recs {
			cnt.Observe(rec.Block)
		}
		dist := cnt.Distribution()
		var top int64
		for i := 0; i < 100 && i < len(dist); i++ {
			top += dist[i].Count
		}
		return float64(top) / float64(cnt.Total())
	}
	rs, _, ws := buildSystem(t, 5)
	populate(t, rs, ws)
	capS := trace.NewCapture(rs.Eng, rs.Driver)
	runDay(t, rs, ws, 0, 1*HourMS)
	capS.Close()

	ru, _, wu := buildUsers(t, 5)
	populate(t, ru, wu)
	capU := trace.NewCapture(ru.Eng, ru.Driver)
	runDay(t, ru, wu, 0, 1*HourMS)
	capU.Close()

	s, u := top100(capS.Records()), top100(capU.Records())
	if u >= s {
		t.Errorf("users top-100 share %.2f not flatter than system %.2f", u, s)
	}
}

func TestUsersDriftAndCreationGrowFilePopulation(t *testing.T) {
	r, _, w := buildUsers(t, 3)
	populate(t, r, w)
	before := 0
	for _, u := range w.users {
		before += len(u.files)
	}
	for d := 0; d < 3; d++ {
		runDay(t, r, w, d, 1*HourMS)
	}
	after := 0
	for _, u := range w.users {
		after += len(u.files)
	}
	if after == before {
		t.Error("no file creation over three days")
	}
	if w.Errors() != 0 {
		t.Errorf("errors: %d", w.Errors())
	}
}

func TestUsersInactiveDays(t *testing.T) {
	r, _, w := buildUsers(t, 11)
	populate(t, r, w)
	runDay(t, r, w, 0, 1*HourMS)
	active := 0
	for _, u := range w.users {
		if u.active {
			active++
		}
	}
	if active == 0 || active == len(w.users) {
		t.Errorf("active users = %d of %d; expected a strict subset on most seeds", active, len(w.users))
	}
}

// dataReads is the rig's driver with an ear on it: it notes, in
// completion order, which (file, block) each data-block read returned.
// A data block's content names its inode and index (fs.dataPattern);
// metadata reads carry another magic and are skipped.
type dataReads struct {
	driver.BlockDevice
	got []string
	on  bool
}

func (d *dataReads) ReadBlock(part int, blk int64, done driver.DoneFunc) {
	d.BlockDevice.ReadBlock(part, blk, func(data []byte, err error) {
		if d.on && err == nil && string(data[:4]) == "DATA" {
			be := binary.BigEndian
			d.got = append(d.got, fmt.Sprintf("%d:%d", be.Uint32(data[4:]), be.Uint64(data[8:])))
		}
		done(data, err)
	})
}

// runJob reads its files one block at a time, round-robin, skipping the
// files already read to the end — the interleaving Section 1.1 is about,
// and what every system golden depends on. The expected orders are
// written out by hand; a two-block data cache makes every read a miss,
// so the device sees each one.
func TestRunJobReadsRoundRobin(t *testing.T) {
	r, err := rig.New(rig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dev := &dataReads{BlockDevice: r.Driver}
	f, err := fs.Newfs(r.Eng, dev, 0, fs.Params{Cache: cache.Config{CapacityBlocks: 2}})
	if err != nil {
		t.Fatal(err)
	}
	r.Eng.Run()
	mkfile := func(name string, blocks int64) fileRef {
		ref := fileRef{blocks: blocks}
		f.Create("/"+name, func(ino fs.Ino, err error) {
			if err != nil {
				t.Fatalf("create %s: %v", name, err)
			}
			ref.ino = ino
			if blocks == 0 {
				return
			}
			h, _ := f.OpenIno(ino)
			h.WriteAt(0, blocks, func(err error) {
				if err != nil {
					t.Fatalf("write %s: %v", name, err)
				}
			})
		})
		r.Eng.Run()
		return ref
	}
	w := NewSystem(r.Eng, f, SystemConfig{})
	// A job that reads past a file's end fails every read at once and,
	// never running out, would spin at one instant for ever: stop the
	// engine at the first error instead.
	r.Eng.SetInterrupt(func() bool { return w.Errors() > 0 })
	for ci, c := range []struct {
		sizes []int64
		want  string // file index . block, in the order read
	}{
		{[]int64{3}, "0.0 0.1 0.2"},
		{[]int64{2, 5}, "0.0 1.0 0.1 1.1 1.2 1.3 1.4"},
		{[]int64{4, 1, 3, 2}, "0.0 1.0 2.0 3.0 0.1 2.1 3.1 0.2 2.2 0.3"},
		// The file at the wrap point runs out first, then the new last.
		{[]int64{3, 2, 1}, "0.0 1.0 2.0 0.1 1.1 0.2"},
		// An empty first file is never read.
		{[]int64{0, 2, 1}, "1.0 2.0 1.1"},
	} {
		var refs []fileRef
		name := map[string]string{}
		for i, n := range c.sizes {
			ref := mkfile(fmt.Sprintf("j%d-%d", ci, i), n)
			refs = append(refs, ref)
			name[fmt.Sprint(ref.ino)] = fmt.Sprint(i)
		}
		// Push the job's own last-written blocks out of the cache.
		mkfile(fmt.Sprintf("j%d-flush", ci), 2)
		done := false
		f.Sync(func(error) {
			dev.got, dev.on = nil, true
			w.runJob(refs, func() { done = true })
		})
		r.Eng.Run()
		dev.on = false
		if !done {
			t.Fatalf("%d-file job did not finish", len(c.sizes))
		}
		var got []string
		for _, g := range dev.got {
			ino, idx, _ := strings.Cut(g, ":")
			got = append(got, name[ino]+"."+idx)
		}
		if s := strings.Join(got, " "); s != c.want {
			t.Errorf("%d-file job, sizes %v: read\n  %s\nwant\n  %s", len(c.sizes), c.sizes, s, c.want)
		}
	}
	if w.Errors() != 0 {
		t.Errorf("%d workload errors", w.Errors())
	}
}

// A warm system job allocates nothing: launch takes a pooled job record
// with its file list and cursors inline and its callbacks built once,
// Open walks on the file system's pooled step record, and every read is
// a cached ReadAt. That holds with access times on as well.
func TestSystemJobWarmZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		prm  fs.Params
	}{
		{"noatime", fs.Params{NoAtime: true}},
		{"atime", fs.Params{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := rig.New(rig.Options{ReservedCyls: 48})
			if err != nil {
				t.Fatal(err)
			}
			f, err := fs.Newfs(r.Eng, r.Driver, 0, tc.prm)
			if err != nil {
				t.Fatal(err)
			}
			r.Eng.Run()
			const files = 8
			w := NewSystem(r.Eng, f, SystemConfig{Files: files})
			for i := 0; i < files; i++ {
				blocks := int64(1 + i%3)
				f.Create("/"+nameOf("f", i), func(ino fs.Ino, err error) {
					if err != nil {
						t.Fatal(err)
					}
					h, _ := f.OpenIno(ino)
					h.WriteAt(0, blocks, func(err error) {
						if err != nil {
							t.Fatal(err)
						}
					})
					w.files = append(w.files, fileRef{ino: ino, blocks: blocks})
				})
				r.Eng.Run()
			}
			w.perm = identity(files)
			jobs := 0
			next := func() { jobs++ }
			job := func() {
				w.launch(0, next)
				r.Eng.Run()
			}
			for i := 0; i < 16; i++ {
				job()
			}
			if n := testing.AllocsPerRun(200, job); n != 0 {
				t.Errorf("warm system job: %v allocs, want 0", n)
			}
			if jobs != 16+201 || w.Errors() != 0 {
				t.Errorf("%d jobs finished, %d errors; want %d and none", jobs, w.Errors(), 16+201)
			}
		})
	}
}
