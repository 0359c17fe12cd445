// Package cache implements the main-memory buffer cache that sits
// between the file system and the disk driver (Section 3.1 of "Adaptive
// Block Rearrangement Under UNIX").
//
// All file I/O goes through the buffer cache. Read requests reach the
// disk only on a miss. Updated blocks are not written back immediately:
// they stay dirty in the cache and are flushed in bulk by the periodic
// update (sync) policy — the mechanism that makes UNIX write traffic
// arrive at the disk in bursts, which in turn is what makes the paper's
// waiting-time reductions large. The cache is an LRU over whole file
// system blocks; evicting a dirty block writes it back first.
package cache

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// pressure defaults.
const defaultPressureFrac = 0.1

// DefaultSyncPeriodMS is the update daemon's period: the traditional
// UNIX 30 seconds.
const DefaultSyncPeriodMS = 30 * 1000

// Config carries cache tunables.
type Config struct {
	// CapacityBlocks is the cache size in blocks; zero selects 1024
	// (8 MB of 8 KB blocks — a modest slice of Sakarya's 32 MB).
	CapacityBlocks int
	// SyncPeriodMS is the update policy period; zero selects 30 s.
	SyncPeriodMS float64
	// PressurePeriodMS, when positive, models external memory pressure:
	// every period the cache drops PressureFrac of its clean blocks at
	// random (the VM system stealing pages for other processes), so
	// even very hot blocks periodically re-miss — which is why real
	// disks still see skewed read streams under a large cache. The
	// pressure daemon runs with the sync daemon.
	PressurePeriodMS float64
	// PressureFrac is the fraction dropped per period; zero with
	// pressure enabled selects 0.1.
	PressureFrac float64
	// Seed seeds the pressure daemon's random choices.
	Seed uint64
}

// Cache is a buffer cache bound to one partition of one block device —
// a single driver or a multi-disk volume. Like the rest of the stack it
// is event-driven and single-threaded.
type Cache struct {
	eng  *sim.Engine
	drv  driver.BlockDevice
	part int
	cfg  Config

	// slab holds every entry, linked by slot number into one circular
	// recency list whose sentinel is slot 0: slab[0].next is the most
	// recently used entry, slab[0].prev the least. The dirty entries are
	// threaded on a second circular list through dnext/dprev, with the
	// same sentinel, in the same recency order, so the update daemon
	// walks only what it writes back. Freed slots are chained through
	// next from freeSlot (0 = none) and reused before the slab grows, so
	// a warm cache inserts without allocating.
	slab     []entry
	freeSlot int32
	n        int // cached blocks
	ndirty   int // entries on the dirty list
	// index maps a block of the partition to its slot, 0 = not cached:
	// the hit path is one indexed load, no hashing. Four bytes per
	// partition block, sized once in New. outside does the same for
	// block numbers the partition does not have (the device refuses
	// them, but a write to one is cached until it gets there).
	index   []int32
	outside map[int64]int32

	// In-flight block reads, so concurrent misses on one block issue a
	// single disk request, in no particular order. The list is short —
	// about one read on the paper's rows, a few dozen at most under
	// volume-scale's 48 clients — so a scan costs less than hashing.
	// Finished records wait on freeMiss.
	inflight []*miss
	freeMiss *miss
	// freeBatch heads the pool of write batches (see batch).
	freeBatch *batch

	syncing bool
	rnd     *sim.Rand

	// free heads the pool of zero-delay completion records (see
	// delivery). Single-threaded like the rest of the cache.
	free *delivery

	hits, misses, writebacks int64
}

// delivery is a pooled zero-delay completion event. Cache hits and
// write acknowledgements outnumber every other event in the stack, and
// each used to allocate a fresh closure for its After(0); finished
// records go back on the cache's free list and are rescheduled through
// sim.AfterCall instead. At most one of read and write is set.
type delivery struct {
	c     *Cache
	next  *delivery
	data  []byte
	read  func([]byte, error)
	write func(error)
}

// Call fires the deferred completion. The record returns to the pool
// before the callback runs, so the callback can issue new cache
// operations that reuse it.
func (d *delivery) Call() {
	c, data, read, write := d.c, d.data, d.read, d.write
	d.data, d.read, d.write = nil, nil, nil
	d.next, c.free = c.free, d
	switch {
	case read != nil:
		read(data, nil)
	case write != nil:
		write(nil)
	}
}

// deliverRead schedules done(data, nil) as a zero-delay event without
// allocating. A nil done still fires an (empty) event, keeping the
// engine's event and sequence streams identical either way.
func (c *Cache) deliverRead(data []byte, done func([]byte, error)) {
	d := c.free
	if d == nil {
		d = &delivery{c: c}
	} else {
		c.free = d.next
	}
	d.data, d.read = data, done
	c.eng.AfterCall(0, d)
}

// deliverWrite schedules done(nil) as a zero-delay event without
// allocating.
func (c *Cache) deliverWrite(done func(error)) {
	d := c.free
	if d == nil {
		d = &delivery{c: c}
	} else {
		c.free = d.next
	}
	d.write = done
	c.eng.AfterCall(0, d)
}

type entry struct {
	block      int64
	data       []byte
	dirty      bool
	prev, next int32
	// dprev, dnext link a dirty entry into the dirty list.
	dprev, dnext int32
}

// miss is one device read in flight and the Reads waiting for it.
// Records are pooled like deliveries, with the completion callback
// built once, so a miss allocates nothing in the cache itself.
type miss struct {
	c       *Cache
	next    *miss
	block   int64
	at      int // index in c.inflight
	waiters []func([]byte, error)
	filled  driver.DoneFunc
}

// New returns a cache over the given partition.
func New(eng *sim.Engine, drv driver.BlockDevice, part int, cfg Config) *Cache {
	if cfg.CapacityBlocks <= 0 {
		cfg.CapacityBlocks = 1024
	}
	if cfg.SyncPeriodMS <= 0 {
		cfg.SyncPeriodMS = DefaultSyncPeriodMS
	}
	if cfg.PressurePeriodMS > 0 && cfg.PressureFrac <= 0 {
		cfg.PressureFrac = defaultPressureFrac
	}
	var blocks int64
	if p, err := drv.Label().Partition(part); err == nil {
		blocks = p.Size / int64(drv.BlockSize().Sectors())
	}
	return &Cache{
		eng:   eng,
		drv:   drv,
		part:  part,
		cfg:   cfg,
		rnd:   sim.NewRand(cfg.Seed ^ 0xCAC4E),
		slab:  make([]entry, 1), // the sentinel, linked to itself
		index: make([]int32, blocks),
	}
}

// slot returns the slab slot caching block, 0 if it is not cached.
func (c *Cache) slot(block int64) int32 {
	if uint64(block) < uint64(len(c.index)) {
		return c.index[block]
	}
	return c.outside[block]
}

// setSlot records that block is cached in slot s (0: no longer cached).
func (c *Cache) setSlot(block int64, s int32) {
	switch {
	case uint64(block) < uint64(len(c.index)):
		c.index[block] = s
	case s == 0:
		delete(c.outside, block)
	default:
		if c.outside == nil {
			c.outside = make(map[int64]int32)
		}
		c.outside[block] = s
	}
}

// unlink takes slot s out of the recency list.
func (c *Cache) unlink(s int32) {
	e := &c.slab[s]
	c.slab[e.prev].next = e.next
	c.slab[e.next].prev = e.prev
}

// pushFront links slot s in as the most recently used.
func (c *Cache) pushFront(s int32) {
	first := c.slab[0].next
	c.slab[s].prev, c.slab[s].next = 0, first
	c.slab[first].prev = s
	c.slab[0].next = s
}

// touch makes slot s the most recently used. A dirty entry moves to the
// front of the dirty list too: it is now the most recently used of them.
// (An entry already at the front of the recency list is at the front of
// the dirty list, if on it.)
func (c *Cache) touch(s int32) {
	if c.slab[0].next != s {
		c.unlink(s)
		c.pushFront(s)
		if c.slab[s].dirty {
			c.dunlink(s)
			c.dpushFront(s)
		}
	}
}

// dpushFront links slot s in at the front of the dirty list.
func (c *Cache) dpushFront(s int32) {
	first := c.slab[0].dnext
	c.slab[s].dprev, c.slab[s].dnext = 0, first
	c.slab[first].dprev = s
	c.slab[0].dnext = s
	c.ndirty++
}

// dunlink takes slot s out of the dirty list.
func (c *Cache) dunlink(s int32) {
	e := &c.slab[s]
	c.slab[e.dprev].dnext = e.dnext
	c.slab[e.dnext].dprev = e.dprev
	c.ndirty--
}

// remove drops slot s from the cache without writing it back.
func (c *Cache) remove(s int32) {
	if c.slab[s].dirty {
		c.dunlink(s)
	}
	c.unlink(s)
	c.setSlot(c.slab[s].block, 0)
	c.slab[s] = entry{next: c.freeSlot} // drops the data reference
	c.freeSlot = s
	c.n--
}

// applyPressure drops a random fraction of the clean cached blocks. It
// walks the recency list from the most recent end and removes each
// victim as it passes it, so the draws and the freed slots come in the
// list's order.
func (c *Cache) applyPressure() {
	for s := c.slab[0].next; s != 0; {
		next := c.slab[s].next
		if !c.slab[s].dirty && c.rnd.Bool(c.cfg.PressureFrac) {
			c.remove(s)
		}
		s = next
	}
}

// Stats returns cumulative hit, miss and write-back counts.
func (c *Cache) Stats() (hits, misses, writebacks int64) {
	return c.hits, c.misses, c.writebacks
}

// BindMetrics registers the cache's lifetime counters in reg under a
// cache="name" label (plus any extra labels), as func-backed metrics
// resolved at snapshot time — the hot path is untouched.
func (c *Cache) BindMetrics(reg *metrics.Registry, name string, labels ...metrics.Label) {
	labels = append([]metrics.Label{{Key: "cache", Value: name}}, labels...)
	reg.CounterFunc("cache_hits", func() int64 { return c.hits }, labels...)
	reg.CounterFunc("cache_misses", func() int64 { return c.misses }, labels...)
	reg.CounterFunc("cache_writebacks", func() int64 { return c.writebacks }, labels...)
}

// Len returns the number of cached blocks.
func (c *Cache) Len() int { return c.n }

// DirtyLen returns the number of dirty cached blocks.
func (c *Cache) DirtyLen() int { return c.ndirty }

// Read returns the block's contents, from the cache if present,
// otherwise from disk. The slice handed to done is the cache's copy,
// read-only and shared like every block payload (driver.DoneFunc): the
// caller must not modify it (use WriteOwned), and may keep it for as long as
// it likes — the cache never changes or reuses it.
func (c *Cache) Read(block int64, done func(data []byte, err error)) {
	if s := c.slot(block); s != 0 {
		c.hits++
		c.touch(s)
		c.deliverRead(c.slab[s].data, done)
		return
	}
	c.misses++
	for _, m := range c.inflight {
		if m.block == block {
			m.waiters = append(m.waiters, done)
			return
		}
	}
	m := c.freeMiss
	if m == nil {
		m = &miss{c: c}
		m.filled = m.complete
	} else {
		c.freeMiss = m.next
	}
	m.block, m.at = block, len(c.inflight)
	m.waiters = append(m.waiters, done)
	c.inflight = append(c.inflight, m)
	c.drv.ReadBlock(c.part, block, m.filled)
}

// complete installs what the device read and hands it to the waiters.
func (m *miss) complete(data []byte, err error) {
	c, block := m.c, m.block
	last := len(c.inflight) - 1
	moved := c.inflight[last]
	c.inflight[m.at], moved.at = moved, m.at
	c.inflight[last] = nil
	c.inflight = c.inflight[:last]
	if err == nil {
		if s := c.slot(block); s != 0 {
			// Written while the read was in flight: the cache's
			// copy is the newer one and stays (with its dirty
			// flag); the fill only counts as a use. The waiters get
			// what the device read.
			c.touch(s)
		} else {
			c.insert(block, data, false)
		}
	}
	for i, w := range m.waiters {
		m.waiters[i] = nil
		if w != nil {
			w(data, err)
		}
	}
	m.waiters = m.waiters[:0]
	m.next, c.freeMiss = c.freeMiss, m
}

// WriteOwned updates the block in the cache and marks it dirty; the disk
// write is deferred to the update policy (or eviction). done fires once
// the block is in the cache — not when it reaches disk. The cache
// installs data directly as its copy of the block — and the device it
// writes back to may keep it as its stored copy — so the caller must
// never modify the buffer after the call. Nor does the cache, or the
// device: the buffer stays byte for byte what was handed over, so a
// caller may hand the same buffer over again (the file system does, with
// its inode-block images and its file data pages).
func (c *Cache) WriteOwned(block int64, data []byte, done func(err error)) {
	if c.wrongSize(data, done) {
		return
	}
	c.install(block, data, true)
	c.deliverWrite(done)
}

// WriteThroughOwned updates the block in the cache (kept clean) and
// writes it to disk immediately; done fires when the disk write
// completes. NFS2 servers wrote client data synchronously, so the
// users-workload experiments use this path for file data. data becomes
// the cache's copy of the block (and is handed to the driver for the
// synchronous disk write), so the caller must not modify the buffer
// after the call; as with WriteOwned, nothing below does either.
func (c *Cache) WriteThroughOwned(block int64, data []byte, done func(err error)) {
	if c.wrongSize(data, done) {
		return
	}
	c.install(block, data, false)
	c.writebacks++
	c.drv.WriteBlock(c.part, block, data, c.getBatch(1, done).written)
}

// wrongSize reports whether data is not exactly one block long, in
// which case it has scheduled done with the error.
func (c *Cache) wrongSize(data []byte, done func(error)) bool {
	want := c.drv.BlockSize().Bytes()
	if len(data) == want {
		return false
	}
	err := fmt.Errorf("cache: write of %d bytes, block size is %d", len(data), want)
	c.eng.After(0, func() {
		if done != nil {
			done(err)
		}
	})
	return true
}

// install makes data the cache's copy of block, most recently used, with
// the given dirty flag.
func (c *Cache) install(block int64, data []byte, dirty bool) {
	s := c.slot(block)
	if s == 0 {
		c.insert(block, data, dirty)
		return
	}
	e := &c.slab[s]
	switch {
	case e.dirty && !dirty:
		c.dunlink(s)
	case !e.dirty && dirty:
		c.dpushFront(s) // right, once touch makes it the most recent
	}
	e.data, e.dirty = data, dirty
	c.touch(s)
}

// insert adds a block that is not cached, evicting (and writing back) as
// needed.
func (c *Cache) insert(block int64, data []byte, dirty bool) {
	for c.n >= c.cfg.CapacityBlocks {
		c.evictOne()
	}
	s := c.freeSlot
	if s != 0 {
		c.freeSlot = c.slab[s].next
	} else {
		s = int32(len(c.slab))
		c.slab = append(c.slab, entry{})
	}
	c.slab[s] = entry{block: block, data: data, dirty: dirty}
	c.pushFront(s)
	if dirty {
		c.dpushFront(s)
	}
	c.setSlot(block, s)
	c.n++
}

// evictOne removes the least recently used block, writing it back first
// if dirty. The write-back is asynchronous; the cache slot is released
// immediately (the data lives on in the driver's request).
func (c *Cache) evictOne() {
	s := c.slab[0].prev
	if s == 0 {
		return
	}
	e := c.slab[s]
	c.remove(s)
	if e.dirty {
		c.writebacks++
		c.drv.WriteBlock(c.part, e.block, e.data, nil)
	}
}

// Sync writes every dirty block to disk, most recently used first, as
// the update daemon does. done fires when all write-backs have
// completed. It visits the dirty entries only: a Sync with nothing
// dirty — most ticks of the daemon over an idle night — costs one event.
func (c *Cache) Sync(done func(err error)) {
	if c.ndirty == 0 {
		c.deliverWrite(done)
		return
	}
	b := c.getBatch(c.ndirty, done)
	for s := c.slab[0].dnext; s != 0; {
		e := &c.slab[s]
		next := e.dnext
		c.dunlink(s)
		e.dirty = false
		s = next
		c.writebacks++
		c.drv.WriteBlock(c.part, e.block, e.data, b.written)
	}
}

// batch is a set of device writes in flight — a Sync's write-backs, or
// a write-through's one write — and the callback that follows the last
// of them. Records are pooled like misses, with the device completion
// built once, so neither costs anything per block.
type batch struct {
	c         *Cache
	next      *batch
	remaining int
	firstErr  error
	done      func(error)
	written   driver.DoneFunc
}

// getBatch pops a batch record off the pool for n writes and done.
func (c *Cache) getBatch(n int, done func(error)) *batch {
	b := c.freeBatch
	if b == nil {
		b = &batch{c: c}
		b.written = b.complete
	} else {
		c.freeBatch = b.next
	}
	b.remaining, b.done = n, done
	return b
}

// complete counts one write; the last returns the record to the pool
// and calls done with the first error.
func (b *batch) complete(_ []byte, err error) {
	if err != nil && b.firstErr == nil {
		b.firstErr = err
	}
	if b.remaining--; b.remaining > 0 {
		return
	}
	c, done, err := b.c, b.done, b.firstErr
	b.done, b.firstErr = nil, nil
	b.next, c.freeBatch = c.freeBatch, b
	if done != nil {
		done(err)
	}
}

// StartSyncDaemon begins the periodic update policy. It runs for the
// life of the cache; a second call does nothing.
func (c *Cache) StartSyncDaemon() {
	if c.syncing {
		return
	}
	c.syncing = true
	var tick func()
	tick = func() {
		c.Sync(nil)
		c.eng.After(c.cfg.SyncPeriodMS, tick)
	}
	c.eng.After(c.cfg.SyncPeriodMS, tick)
	if c.cfg.PressurePeriodMS > 0 {
		var ptick func()
		ptick = func() {
			c.applyPressure()
			c.eng.After(c.cfg.PressurePeriodMS, ptick)
		}
		c.eng.After(c.cfg.PressurePeriodMS, ptick)
	}
}

// Invalidate drops a block from the cache without writing it back. The
// file system uses it when freeing blocks.
func (c *Cache) Invalidate(block int64) {
	if s := c.slot(block); s != 0 {
		c.remove(s)
	}
}
