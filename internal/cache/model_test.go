package cache

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/geom"
	"repro/internal/label"
	"repro/internal/sim"
)

// This file checks the cache against a deliberately naive reference: a
// slice of entries in recency order, searched linearly. Seeded random
// programs of reads, writes, write-throughs, invalidations, syncs and
// memory pressure — with several misses in flight and one block the
// partition does not have — run on both, each over its own engine and
// its own fake device; every completion, every counter, the recency
// order at each observation point, the requests each issued to its
// device and the final contents must match. A failing seed is logged so
// the exact program can be replayed.
//
// The programs are also what checks that payloads are immutable
// (DESIGN.md "Payload path"). Every reader holds what Read delivered for
// a while — across the evictions, invalidations, pressure drops and
// overwrites of that block the rest of the program makes — then says
// what it holds. The fake device, like the disk store, keeps what it is
// written and hands that very buffer to later readers, so a cache that
// wrote into any buffer it had delivered, been handed or read would
// show it there. Written payloads, some handed in for two blocks the
// way the file system shares an inode-block image, are checked the same
// way at the end of the run.

// cacheAPI is the surface a program drives.
type cacheAPI interface {
	Read(block int64, done func([]byte, error))
	WriteOwned(block int64, data []byte, done func(error))
	WriteThroughOwned(block int64, data []byte, done func(error))
	Invalidate(block int64)
	Sync(done func(error))
	applyPressure()
	Len() int
	DirtyLen() int
	Stats() (hits, misses, writebacks int64)
	// order lists the cached blocks, most recently used first, with
	// their first byte and dirty flag.
	order() string
}

var _ cacheAPI = (*Cache)(nil)
var _ cacheAPI = (*modelCache)(nil)

func (c *Cache) order() string {
	var b strings.Builder
	for s := c.slab[0].next; s != 0; s = c.slab[s].next {
		e := &c.slab[s]
		if c.slot(e.block) != s {
			fmt.Fprintf(&b, "[block %d in slot %d but indexed at %d]", e.block, s, c.slot(e.block))
		}
		fmt.Fprintf(&b, "%d=%02x/%v ", e.block, e.data[0], e.dirty)
	}
	return b.String()
}

// dirtyListFault checks the dirty list against the recency list: it must
// hold exactly the dirty entries, in recency order, linked both ways,
// and DirtyLen must count them. It returns what is wrong, or "".
func (c *Cache) dirtyListFault() string {
	var want, got []int32
	for s := c.slab[0].next; s != 0; s = c.slab[s].next {
		if c.slab[s].dirty {
			want = append(want, s)
		}
	}
	prev := int32(0)
	for s := c.slab[0].dnext; s != 0 && len(got) <= len(c.slab); s = c.slab[s].dnext {
		if c.slab[s].dprev != prev {
			return fmt.Sprintf("slot %d's dprev is %d, follows %d", s, c.slab[s].dprev, prev)
		}
		got, prev = append(got, s), s
	}
	if c.slab[0].dprev != prev {
		return fmt.Sprintf("dirty list ends at %d, sentinel's dprev is %d", prev, c.slab[0].dprev)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Sprintf("dirty list %v, dirty entries in recency order %v", got, want)
	}
	if c.DirtyLen() != len(want) {
		return fmt.Sprintf("DirtyLen %d, %d dirty entries", c.DirtyLen(), len(want))
	}
	return ""
}

// fakeDev is a block device that answers every request after a fixed
// delay, in issue order, and logs what it was asked. It keeps what it is
// written and reads it back shared, a block never written as one zero
// block, as the disk store does.
type fakeDev struct {
	eng    *sim.Engine
	lbl    *label.Label
	blocks int64
	store  map[int64][]byte
	log    strings.Builder
}

const (
	fakeBlock   = geom.Block8K
	fakeDelayMS = 2
)

var fakeZero = make([]byte, fakeBlock.Bytes())

var errOutside = errors.New("fakeDev: block outside the partition")

func newFakeDev(eng *sim.Engine, blocks int64) *fakeDev {
	return &fakeDev{
		eng:    eng,
		lbl:    &label.Label{Parts: []label.Partition{{Size: blocks * int64(fakeBlock.Sectors())}}},
		blocks: blocks,
		store:  make(map[int64][]byte),
	}
}

func (d *fakeDev) BlockSize() geom.BlockSize { return fakeBlock }
func (d *fakeDev) Label() *label.Label       { return d.lbl }

func (d *fakeDev) ReadBlock(_ int, blk int64, done driver.DoneFunc) {
	fmt.Fprintf(&d.log, "R%d ", blk)
	d.eng.After(fakeDelayMS, func() {
		if blk < 0 || blk >= d.blocks {
			done(nil, errOutside)
			return
		}
		data := d.store[blk]
		if data == nil {
			data = fakeZero
		}
		done(data, nil)
	})
}

func (d *fakeDev) WriteBlock(_ int, blk int64, data []byte, done driver.DoneFunc) {
	fmt.Fprintf(&d.log, "W%d=%02x ", blk, data[0])
	d.eng.After(fakeDelayMS, func() {
		var err error
		if blk < 0 || blk >= d.blocks {
			err = errOutside
		} else {
			d.store[blk] = data
		}
		if done != nil {
			done(nil, err)
		}
	})
}

// modelCache is the reference. Everything about it favours obviousness
// over speed.
type modelCache struct {
	eng      *sim.Engine
	dev      driver.BlockDevice
	cfg      Config
	rnd      *sim.Rand
	lru      []modelEntry // most recently used first
	inflight map[int64][]func([]byte, error)

	hits, misses, writebacks int64
}

type modelEntry struct {
	block int64
	data  []byte
	dirty bool
}

func newModel(eng *sim.Engine, dev driver.BlockDevice, cfg Config) *modelCache {
	return &modelCache{eng: eng, dev: dev, cfg: cfg, rnd: sim.NewRand(cfg.Seed ^ 0xCAC4E),
		inflight: make(map[int64][]func([]byte, error))}
}

func (m *modelCache) find(block int64) int {
	for i := range m.lru {
		if m.lru[i].block == block {
			return i
		}
	}
	return -1
}

// drop removes and returns entry i.
func (m *modelCache) drop(i int) modelEntry {
	e := m.lru[i]
	m.lru = append(m.lru[:i:i], m.lru[i+1:]...)
	return e
}

// put makes e the most recently used entry, replacing any entry for the
// same block and evicting from the back when the cache is full.
func (m *modelCache) put(e modelEntry) {
	if i := m.find(e.block); i >= 0 {
		m.drop(i)
	}
	for len(m.lru) >= m.cfg.CapacityBlocks {
		old := m.drop(len(m.lru) - 1)
		if old.dirty {
			m.writebacks++
			m.dev.WriteBlock(0, old.block, old.data, nil)
		}
	}
	m.lru = append([]modelEntry{e}, m.lru...)
}

func (m *modelCache) Read(block int64, done func([]byte, error)) {
	if i := m.find(block); i >= 0 {
		m.hits++
		e := m.lru[i]
		m.put(e)
		m.eng.After(0, func() { done(e.data, nil) })
		return
	}
	m.misses++
	waiters, coalesced := m.inflight[block]
	m.inflight[block] = append(waiters, done)
	if coalesced {
		return
	}
	m.dev.ReadBlock(0, block, func(data []byte, err error) {
		waiters := m.inflight[block]
		delete(m.inflight, block)
		if err == nil {
			if i := m.find(block); i >= 0 {
				m.put(m.lru[i]) // written meanwhile: the newer copy stays
			} else {
				m.put(modelEntry{block: block, data: data})
			}
		}
		for _, w := range waiters {
			w(data, err)
		}
	})
}

func (m *modelCache) WriteOwned(block int64, data []byte, done func(error)) {
	m.put(modelEntry{block: block, data: data, dirty: true})
	m.eng.After(0, func() { done(nil) })
}

func (m *modelCache) WriteThroughOwned(block int64, data []byte, done func(error)) {
	m.put(modelEntry{block: block, data: data})
	m.writebacks++
	m.dev.WriteBlock(0, block, data, func(_ []byte, err error) { done(err) })
}

func (m *modelCache) Invalidate(block int64) {
	if i := m.find(block); i >= 0 {
		m.drop(i)
	}
}

func (m *modelCache) Sync(done func(error)) {
	var dirty []int
	for i := range m.lru {
		if m.lru[i].dirty {
			dirty = append(dirty, i)
		}
	}
	if len(dirty) == 0 {
		m.eng.After(0, func() { done(nil) })
		return
	}
	remaining := len(dirty)
	var firstErr error
	for _, i := range dirty {
		m.lru[i].dirty = false
		m.writebacks++
		m.dev.WriteBlock(0, m.lru[i].block, m.lru[i].data, func(_ []byte, err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if remaining--; remaining == 0 {
				done(firstErr)
			}
		})
	}
}

func (m *modelCache) applyPressure() {
	var victims []int64
	for _, e := range m.lru {
		if !e.dirty && m.rnd.Bool(m.cfg.PressureFrac) {
			victims = append(victims, e.block)
		}
	}
	for _, b := range victims {
		m.Invalidate(b)
	}
}

func (m *modelCache) Len() int { return len(m.lru) }

func (m *modelCache) DirtyLen() int {
	var n int
	for _, e := range m.lru {
		if e.dirty {
			n++
		}
	}
	return n
}

func (m *modelCache) Stats() (hits, misses, writebacks int64) {
	return m.hits, m.misses, m.writebacks
}

func (m *modelCache) order() string {
	var b strings.Builder
	for _, e := range m.lru {
		fmt.Fprintf(&b, "%d=%02x/%v ", e.block, e.data[0], e.dirty)
	}
	return b.String()
}

// runCacheProgram runs the program of the given seed on a cache built by
// mk and returns everything observable about the run.
func runCacheProgram(seed uint64, mk func(*sim.Engine, driver.BlockDevice, Config) cacheAPI) string {
	const (
		partBlocks = 24
		hotBlocks  = 20   // more than any capacity drawn below
		outside    = 1000 // the block the partition does not have
		steps      = 400
	)
	rnd := sim.NewRand(seed)
	eng := sim.NewEngine()
	dev := newFakeDev(eng, partBlocks)
	c := mk(eng, dev, Config{CapacityBlocks: 4 + rnd.Intn(13), PressureFrac: 0.3, Seed: seed})

	var trace strings.Builder
	pick := func() int64 {
		if rnd.Bool(0.04) {
			return outside
		}
		return int64(rnd.Intn(hotBlocks))
	}
	// held says what a buffer that should be all one byte holds now.
	held := func(data []byte) string {
		if bytes.Count(data, data[:1]) != len(data) {
			return "torn"
		}
		return fmt.Sprintf("%02x", data[0])
	}
	// Payloads are all one byte, never zero, and are all kept to be
	// looked at again when the program is over.
	var payloads [][]byte
	fill := func() []byte {
		if len(payloads) > 0 && rnd.Bool(0.15) {
			return payloads[len(payloads)-1] // one buffer, two blocks
		}
		p := bytes.Repeat([]byte{byte(1 + rnd.Intn(200))}, fakeBlock.Bytes())
		payloads = append(payloads, p)
		return p
	}
	// After every operation (and every stretch of time) the cache's
	// dirty list must be its recency list filtered to dirty entries; a
	// fault lands in the trace, which the model's never has.
	checkDirty := func(i int) {
		if ck, ok := c.(interface{ dirtyListFault() string }); ok {
			if fault := ck.dirtyListFault(); fault != "" {
				fmt.Fprintf(&trace, "|step %d: %s\n", i, fault)
			}
		}
	}
	observe := func() {
		h, m, w := c.Stats()
		fmt.Fprintf(&trace, "|t=%g len=%d dirty=%d h=%d m=%d w=%d: %s\n",
			eng.Now(), c.Len(), c.DirtyLen(), h, m, w, c.order())
	}
	for i := 0; i < steps; i++ {
		switch op := rnd.Intn(16); {
		case op < 7:
			b := pick()
			// How long this reader holds what it read before it looks
			// again: not at all, or for a few device requests' time.
			hold := 6 * rnd.Float64()
			if rnd.Bool(0.3) {
				hold = 0
			}
			c.Read(b, func(data []byte, err error) {
				if err != nil {
					fmt.Fprintf(&trace, "r%d:%v@%g;", b, err, eng.Now())
					return
				}
				fmt.Fprintf(&trace, "r%d=%s@%g;", b, held(data), eng.Now())
				look := func() { fmt.Fprintf(&trace, "look%d=%s@%g;", b, held(data), eng.Now()) }
				if hold == 0 {
					look()
				} else {
					eng.After(hold, look)
				}
			})
		case op < 10:
			b := pick()
			c.WriteOwned(b, fill(), func(err error) { fmt.Fprintf(&trace, "w%d:%v@%g;", b, err, eng.Now()) })
		case op < 12:
			b := pick()
			c.WriteThroughOwned(b, fill(), func(err error) { fmt.Fprintf(&trace, "t%d:%v@%g;", b, err, eng.Now()) })
		case op == 12:
			c.Invalidate(pick())
		case op == 13:
			c.Sync(func(err error) { fmt.Fprintf(&trace, "s:%v@%g;", err, eng.Now()) })
		case op == 14:
			c.applyPressure()
		}
		checkDirty(i)
		// Let some time pass, usually less than a device request takes,
		// so misses overlap.
		if rnd.Bool(0.6) {
			eng.RunUntil(eng.Now() + 1.5*rnd.Float64())
			checkDirty(i)
		}
		if i%20 == 19 {
			observe()
		}
	}
	eng.Run()
	checkDirty(steps)
	observe()
	fmt.Fprintf(&trace, "device: %s\n", dev.log.String())
	for _, p := range payloads {
		fmt.Fprintf(&trace, "%s ", held(p))
	}
	for b := int64(0); b < partBlocks; b++ {
		if data := dev.store[b]; data != nil {
			fmt.Fprintf(&trace, "disk %d=%02x ", b, data[0])
		}
	}
	return trace.String()
}

func TestCacheMatchesModel(t *testing.T) {
	iters := 200
	if testing.Short() {
		iters = 40
	}
	const base = uint64(0x9e3779b97f4a7c15)
	for i := 0; i < iters; i++ {
		seed := base + uint64(i)*0xbf58476d1ce4e5b9
		got := runCacheProgram(seed, func(eng *sim.Engine, dev driver.BlockDevice, cfg Config) cacheAPI {
			return New(eng, dev, 0, cfg)
		})
		want := runCacheProgram(seed, func(eng *sim.Engine, dev driver.BlockDevice, cfg Config) cacheAPI {
			return newModel(eng, dev, cfg)
		})
		if got != want {
			t.Fatalf("seed %#x: cache diverges from the model%s", seed, firstDifference(got, want))
		}
	}
}

// firstDifference shows the first line on which two traces differ.
func firstDifference(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf(" at line %d\ncache: %s\nmodel: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf(": %d lines against %d", len(g), len(w))
}

// A Sync with nothing dirty visits no slot: with every recency link of a
// full, clean cache broken, it must still just deliver its completion.
// (A Sync that walked the recency list would index out of the slab.)
func TestSyncIdleVisitsNoSlot(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFakeDev(eng, 64)
	c := New(eng, dev, 0, Config{CapacityBlocks: 32})
	for b := int64(0); b < 32; b++ {
		c.Read(b, nil)
	}
	c.WriteOwned(40, make([]byte, fakeBlock.Bytes()), nil)
	eng.Run()
	c.Sync(nil)
	eng.Run()
	if c.DirtyLen() != 0 || c.Len() != 32 {
		t.Fatalf("after Sync: %d cached, %d dirty; want 32 clean", c.Len(), c.DirtyLen())
	}
	saved := append([]entry(nil), c.slab...)
	for s := 1; s < len(c.slab); s++ {
		c.slab[s].next, c.slab[s].prev = -1, -1
	}
	c.slab[0].next, c.slab[0].prev = -1, -1
	synced := false
	c.Sync(func(err error) { synced = err == nil })
	eng.Run()
	copy(c.slab, saved)
	if !synced {
		t.Fatal("idle Sync did not complete")
	}
	if got := dev.log.String(); strings.Count(got, "W") != 1 {
		t.Fatalf("device saw %q, want the one write-back of the first Sync", got)
	}
}
