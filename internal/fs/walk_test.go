package fs

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// splitRef is the path parser the in-place walk replaced, kept as its
// reference: split on "/", drop empty and "." components.
func splitRef(path string) []string {
	var out []string
	for _, c := range strings.Split(path, "/") {
		if c != "" && c != "." {
			out = append(out, c)
		}
	}
	return out
}

// walkComps runs nextComp over path the way resolve does, returning each
// component and whether resolve takes it for the final one (no
// component after it).
func walkComps(path string) (comps []string, last []bool) {
	for comp, rest := nextComp(path); comp != ""; {
		after, rest2 := nextComp(rest)
		comps = append(comps, comp)
		last = append(last, after == "")
		comp, rest = after, rest2
	}
	return comps, last
}

func checkWalk(t *testing.T, path string) {
	t.Helper()
	want := splitRef(path)
	comps, last := walkComps(path)
	if !slices.Equal(comps, want) {
		t.Fatalf("path %q: walk gives %q, split-and-filter gives %q", path, comps, want)
	}
	for i, l := range last {
		if l != (i == len(want)-1) {
			t.Fatalf("path %q: component %d of %d (%q) taken as final = %v", path, i, len(want), comps[i], l)
		}
	}
}

// The in-place walk yields exactly the components the old
// strings.Split-and-filter parser did, and marks the last of them — and
// only it — final.
func FuzzPathComponents(f *testing.F) {
	for _, p := range []string{"", "/", ".", "..", "a", "/a", "a/./b/", "//a//", "/a/b/.", "/a/b/", "a/.", "./a", "a/../b", "/./././", "a//b///c"} {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, path string) { checkWalk(t, path) })
}

// resolve's "final component" decision, which lets create make the last
// component of a path but not an intermediate one, ignores trailing
// slashes and dots: only a missing *final* component comes back as
// (parent, name, nil target).
func TestResolveFinalComponent(t *testing.T) {
	r, f := newFS(t)
	a := mustMkdir(t, r, f, "/a")
	for _, tc := range []struct {
		path   string
		parent Ino // -1: none
		name   string
		target Ino // -1: missing
		err    error
	}{
		{"", -1, "", RootIno, nil},
		{"/", -1, "", RootIno, nil},
		{".", -1, "", RootIno, nil},
		{"//a//", RootIno, "a", a, nil},
		{"a/.", RootIno, "a", a, nil},
		{"a/./b/", a, "b", -1, nil},
		{"/a/b/.", a, "b", -1, nil},
		{"/a/b//./", a, "b", -1, nil},
		{"/x/.", RootIno, "x", -1, nil},
		{"/a/b/c", -1, "", -1, ErrNotFound},
		{"/x/./b/", -1, "", -1, ErrNotFound},
	} {
		checkWalk(t, tc.path)
		parent, name, target, steps, err := f.resolve(tc.path, nil)
		if !errors.Is(err, tc.err) || (err == nil) != (tc.err == nil) {
			t.Errorf("resolve(%q): error %v, want %v", tc.path, err, tc.err)
			continue
		}
		if len(steps) == 0 || steps[0].block != f.inodeBlockOf(RootIno) {
			t.Errorf("resolve(%q): the walk does not start at the root's inode block", tc.path)
		}
		gotParent, gotTarget := Ino(-1), Ino(-1)
		if parent != nil {
			gotParent = parent.ino
		}
		if target != nil {
			gotTarget = target.ino
		}
		if gotParent != tc.parent || name != tc.name || gotTarget != tc.target {
			t.Errorf("resolve(%q) = parent %d, name %q, target %d; want %d, %q, %d",
				tc.path, gotParent, name, gotTarget, tc.parent, tc.name, tc.target)
		}
	}
}

// Open with a nil done still walks and still dirties the access times
// of the directories it passes, exactly as a Lookup does.
func TestOpenNilDoneTouchesWalk(t *testing.T) {
	r, f := newFS(t)
	mustMkdir(t, r, f, "/deep")
	mustMkdir(t, r, f, "/deep/er")
	mustCreate(t, r, f, "/deep/er/file")
	clean := func() {
		t.Helper()
		f.Sync(nil)
		r.Eng.Run()
		if n := f.MetaCache().DirtyLen(); n != 0 {
			t.Fatalf("%d dirty after sync", n)
		}
	}
	clean()
	f.Lookup("/deep/er/file", func(_ Ino, err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	r.Eng.Run()
	want := f.MetaCache().DirtyLen()
	if want == 0 {
		t.Fatal("the lookup dirtied no directory access times")
	}
	clean()
	f.Open("/deep/er/file", nil)
	r.Eng.Run()
	if got := f.MetaCache().DirtyLen(); got != want {
		t.Errorf("Open(path, nil) left %d dirty metadata blocks, Lookup %d", got, want)
	}
}

// A failed Lookup or Open completes exactly once, never from inside the
// call, through one zero-delay event — with the zero inode number or a
// nil handle.
func TestFailedWalkCompletesOnce(t *testing.T) {
	r, f := newFS(t)
	mustCreate(t, r, f, "/file")
	for _, path := range []string{"/missing", "/missing/x", "/file/x"} {
		for _, op := range []string{"Lookup", "Open"} {
			calls := 0
			var err error
			switch op {
			case "Lookup":
				f.Lookup(path, func(ino Ino, e error) {
					calls++
					err = e
					if ino != 0 {
						t.Errorf("failed Lookup(%q) handed on inode %d", path, ino)
					}
				})
			case "Open":
				f.Open(path, func(h *Handle, e error) {
					calls++
					err = e
					if h != nil {
						t.Errorf("failed Open(%q) handed on a handle", path)
					}
				})
			}
			if calls != 0 {
				t.Fatalf("%s(%q) completed inside the call", op, path)
			}
			before, now := r.Eng.Dispatched(), r.Eng.Now()
			r.Eng.Run()
			if calls != 1 {
				t.Errorf("%s(%q) completed %d times", op, path, calls)
			}
			if !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrNotDir) {
				t.Errorf("%s(%q): %v", op, path, err)
			}
			if n := r.Eng.Dispatched() - before; n != 1 || r.Eng.Now() != now {
				t.Errorf("%s(%q) failed through %d events, %v ms later; want one zero-delay event", op, path, n, r.Eng.Now()-now)
			}
		}
	}
}

// A done that starts more walks from inside its own completion gets
// fresh records: its own is not back in the pool until it returns. Every
// walk finishes once with its own answer, and the pool holds each record
// once afterwards.
func TestWalkFromInsideDone(t *testing.T) {
	r, f := newFS(t)
	a := mustMkdir(t, r, f, "/a")
	b := mustCreate(t, r, f, "/a/b")
	var outer, inner, opened int
	f.Lookup("/a/b", func(ino Ino, err error) {
		outer++
		self := f.freeSeq
		f.Lookup("/a", func(ino Ino, err error) {
			inner++
			if err != nil || ino != a {
				t.Errorf("inner Lookup: %d, %v; want %d", ino, err, a)
			}
		})
		f.Open("/a/b", func(h *Handle, err error) {
			opened++
			if err != nil || h.Ino() != b {
				t.Errorf("inner Open: %v, %v; want inode %d", h, err, b)
			}
		})
		if f.freeSeq != nil && f.freeSeq == self {
			t.Error("the inner walks left the pool as it was")
		}
		if err != nil || ino != b {
			t.Errorf("outer Lookup: %d, %v; want %d", ino, err, b)
		}
	})
	r.Eng.Run()
	if outer != 1 || inner != 1 || opened != 1 {
		t.Fatalf("completions: outer %d, inner %d, open %d; want one each", outer, inner, opened)
	}
	seen := map[*seqReq]bool{}
	for q := f.freeSeq; q != nil; q = q.next {
		if seen[q] {
			t.Fatal("a step record is in the pool twice")
		}
		seen[q] = true
	}
	if len(seen) < 3 {
		t.Errorf("%d step records pooled after three overlapping walks, want 3", len(seen))
	}
}

// Every record back in the pool is a zero record but for what it keeps
// across operations — its file system, pool link, callbacks and empty
// buffers — after every kind of operation, failed ones and latency-timed
// ones included. finish resets a record in one assignment, readDone
// field by field, so a field added to seqReq and left out of readDone's
// list fails here.
func TestPooledRecordsAreReset(t *testing.T) {
	r, f := newFS(t)
	f.BindMetrics(metrics.NewRegistry())
	mustMkdir(t, r, f, "/d")
	mustCreate(t, r, f, "/d/a")
	h := mustOpen(t, r, f, "/d/a")
	mustWrite(t, r, h, 0, NDirect+2)
	mustRead(t, r, h, NDirect-1, 3)
	h.ReadAt(0, NDirect+3, func([][]byte, error) {})
	f.Lookup("/d/missing", func(Ino, error) {})
	f.ReadDir("/d", func([]string, error) {})
	f.Remove("/d", func(error) {})
	r.Eng.Run()
	mustRemove(t, r, f, "/d/a")

	kept := map[string]bool{"f": true, "next": true, "steps": true, "out": true, "readCB": true, "dataCB": true, "writeCB": true}
	n := 0
	for q := f.freeSeq; q != nil; q = q.next {
		n++
		v := reflect.ValueOf(q).Elem()
		for i := 0; i < v.NumField(); i++ {
			if name := v.Type().Field(i).Name; !kept[name] && !v.Field(i).IsZero() {
				t.Errorf("pooled record keeps %s = %v", name, v.Field(i))
			}
		}
		if q.f != f || q.readCB == nil || q.dataCB == nil || q.writeCB == nil || len(q.steps) != 0 || len(q.out) != 0 {
			t.Errorf("pooled record lost what it keeps: f %v, callbacks %v %v %v, %d steps, %d blocks",
				q.f == f, q.readCB != nil, q.dataCB != nil, q.writeCB != nil, len(q.steps), len(q.out))
		}
		for _, s := range q.steps[:cap(q.steps)] {
			if s.data != nil {
				t.Errorf("pooled record's step buffer holds an image of block %d", s.block)
			}
		}
		for _, b := range q.out[:cap(q.out)] {
			if b != nil {
				t.Error("pooled record's result slice holds a block")
			}
		}
	}
	if n == 0 {
		t.Fatal("no record in the pool")
	}
}

// A Handle is (file system, inode number), and the inode's own Handle
// keeps behaving like one across Remove and a re-Create that reuses the
// number: the file is gone, then the handle names the new file — what a
// freshly built Handle of that number does.
func TestHandleAcrossRemoveAndRecreate(t *testing.T) {
	r, f := newFS(t)
	ino := mustCreate(t, r, f, "/old")
	h := mustOpen(t, r, f, "/old")
	mustWrite(t, r, h, 0, 3)
	ref := &Handle{f: f, ino: ino}
	same := func(when string) {
		t.Helper()
		if h.Ino() != ref.Ino() || h.IsDir() != ref.IsDir() || h.SizeBlocks() != ref.SizeBlocks() {
			t.Errorf("%s: held handle (%d, dir %v, %d blocks) differs from a fresh one (%d, dir %v, %d blocks)",
				when, h.Ino(), h.IsDir(), h.SizeBlocks(), ref.Ino(), ref.IsDir(), ref.SizeBlocks())
		}
	}
	same("open")

	mustRemove(t, r, f, "/old")
	same("removed")
	if h.SizeBlocks() != 0 {
		t.Errorf("removed file still has %d blocks", h.SizeBlocks())
	}
	var rerr, werr error
	h.ReadAt(0, 1, func(_ [][]byte, err error) { rerr = err })
	h.WriteAt(0, 1, func(err error) { werr = err })
	r.Eng.Run()
	if !errors.Is(rerr, ErrNotFound) || !errors.Is(werr, ErrNotFound) {
		t.Errorf("read, write through the removed file's handle: %v, %v; want ErrNotFound", rerr, werr)
	}

	if again := mustCreate(t, r, f, "/new"); again != ino {
		t.Fatalf("re-create took inode %d, not the freed %d", again, ino)
	}
	same("re-created")
	mustWrite(t, r, h, 0, 2)
	same("written through the held handle")
	if n := mustOpen(t, r, f, "/new").SizeBlocks(); n != 2 {
		t.Errorf("the new file has %d blocks after a 2-block write through the held handle", n)
	}
	if blks := mustRead(t, r, h, 0, 2); !f.CheckPattern(blks[1], ino, 1) {
		t.Error("the held handle reads another file's block")
	}
}
