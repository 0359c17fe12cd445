package fs

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rig"
	"repro/internal/sim"
)

// TestModelCheckedRandomOps drives the file system with a long random
// operation sequence while mirroring the expected state in a simple
// in-memory model, then syncs, rearranges the hottest blocks through
// the driver, remounts from the disk image, and verifies every file —
// existence, size, and byte-for-byte contents — against the model.
func TestModelCheckedRandomOps(t *testing.T) {
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		t.Fatal(err)
	}
	// The analyzer's request table records everything from here on.
	rear, err := core.New(r.Eng, r.Driver, core.Config{MaxBlocks: 300})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Newfs(r.Eng, r.Driver, 0, Params{})
	if err != nil {
		t.Fatal(err)
	}
	r.Eng.Run()

	type modelFile struct {
		ino    Ino
		blocks int64
	}
	model := make(map[string]*modelFile) // path -> state
	var dirs []string
	rnd := sim.NewRand(20260706)

	// A few directories to work under.
	for i := 0; i < 4; i++ {
		path := fmt.Sprintf("/dir%d", i)
		mustMkdir(t, r, f, path)
		dirs = append(dirs, path)
	}

	pick := func() (string, *modelFile) {
		if len(model) == 0 {
			return "", nil
		}
		k := rnd.Intn(len(model))
		for path, mf := range model {
			if k == 0 {
				return path, mf
			}
			k--
		}
		return "", nil
	}

	created := 0
	for op := 0; op < 400; op++ {
		switch p := rnd.Float64(); {
		case p < 0.35: // create a new file with initial content
			created++
			path := fmt.Sprintf("%s/f%04d", dirs[rnd.Intn(len(dirs))], created)
			blocks := int64(rnd.Intn(20)) + 1
			ino := mustCreate(t, r, f, path)
			h, _ := f.OpenIno(ino)
			mustWrite(t, r, h, 0, blocks)
			model[path] = &modelFile{ino: ino, blocks: blocks}
		case p < 0.60: // extend or overwrite an existing file
			path, mf := pick()
			if mf == nil {
				continue
			}
			h, err := f.OpenIno(mf.ino)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			at := rnd.Int63n(mf.blocks + 1) // may extend at exactly size
			n := int64(rnd.Intn(8)) + 1
			if at+n > f.MaxFileBlocks() {
				continue
			}
			mustWrite(t, r, h, at, n)
			if at+n > mf.blocks {
				mf.blocks = at + n
			}
		case p < 0.80: // read and verify a random range
			_, mf := pick()
			if mf == nil {
				continue
			}
			h, _ := f.OpenIno(mf.ino)
			at := rnd.Int63n(mf.blocks)
			n := rnd.Int63n(mf.blocks-at) + 1
			data := mustRead(t, r, h, at, n)
			for i, blk := range data {
				if !f.CheckPattern(blk, mf.ino, at+int64(i)) {
					t.Fatalf("op %d: block %d of ino %d corrupt", op, at+int64(i), mf.ino)
				}
			}
		case p < 0.90: // delete a file
			path, mf := pick()
			if mf == nil {
				continue
			}
			mustRemove(t, r, f, path)
			delete(model, path)
		default: // periodic sync, as the update daemon would
			f.Sync(nil)
			r.Eng.Run()
			checkImages(t, f)
		}
	}

	// Flush everything, then rearrange the hottest blocks.
	f.Sync(nil)
	r.Eng.Run()
	rear.Poll()
	var installed int
	rear.Rearrange(func(n int, err error) {
		if err != nil {
			t.Fatalf("rearrange: %v", err)
		}
		installed = n
	})
	r.Eng.Run()
	if installed == 0 {
		t.Fatal("rearrangement installed nothing")
	}

	// Every file must verify against the model through the redirects.
	verify := func(fsys *FS, label string) {
		for path, mf := range model {
			var got Ino
			var lerr error
			fsys.Lookup(path, func(i Ino, err error) { got, lerr = i, err })
			r.Eng.Run()
			if lerr != nil {
				t.Fatalf("%s: lookup %s: %v", label, path, lerr)
			}
			if got != mf.ino {
				t.Fatalf("%s: %s resolved to ino %d, want %d", label, path, got, mf.ino)
			}
			h, err := fsys.OpenIno(got)
			if err != nil {
				t.Fatal(err)
			}
			if h.SizeBlocks() != mf.blocks {
				t.Fatalf("%s: %s has %d blocks, want %d", label, path, h.SizeBlocks(), mf.blocks)
			}
			for i, blk := range mustRead(t, r, h, 0, mf.blocks) {
				if !fsys.CheckPattern(blk, mf.ino, int64(i)) {
					t.Fatalf("%s: %s block %d corrupt", label, path, i)
				}
			}
		}
	}
	verify(f, "rearranged")

	// Remount from the on-disk image (through the block-table redirects)
	// and verify everything again.
	f.Sync(nil)
	r.Eng.Run()
	var f2 *FS
	Mount(r.Eng, r.Driver, 0, Params{}, func(m *FS, err error) {
		if err != nil {
			t.Fatalf("mount: %v", err)
		}
		f2 = m
	})
	r.Eng.Run()
	verify(f2, "remounted")

	// And once more after cleaning the reserved region.
	var cerr error
	r.Driver.Clean(func(err error) { cerr = err })
	r.Eng.Run()
	if cerr != nil {
		t.Fatal(cerr)
	}
	verify(f2, "cleaned")
	checkTape(t, f)
	checkTape(t, f2)
}
