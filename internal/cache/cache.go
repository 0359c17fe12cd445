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
	// recently used entry, slab[0].prev the least. Freed slots are
	// chained through next from freeSlot (0 = none) and reused before the
	// slab grows, so a warm cache inserts without allocating.
	slab     []entry
	freeSlot int32
	n        int // cached blocks
	// index maps a block of the partition to its slot, 0 = not cached:
	// the hit path is one indexed load, no hashing. Four bytes per
	// partition block, sized once in New. outside does the same for
	// block numbers the partition does not have (the device refuses
	// them, but a write to one is cached until it gets there).
	index   []int32
	outside map[int64]int32

	// In-flight block reads, so concurrent misses on one block issue a
	// single disk request. Finished records wait on freeMiss.
	inflight map[int64]*miss
	freeMiss *miss

	syncing bool
	syncSeq int
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
	block int64
	data  []byte
	dirty bool
	// fill: data was delivered by a device read, so the cache is its
	// only owner besides the readers counted in lends. A buffer a writer
	// handed in is the writer's to share (the file system installs one
	// inode-block image many times over) and is never recycled.
	fill bool
	// lends counts the Reads that were given data and have not called
	// Release. A reader that never does leaves it above zero for good.
	lends      int32
	prev, next int32
}

// letGo is called when the cache drops its reference to e's buffer: a
// device fill nobody has on loan goes back to the read pool; anything
// else is left to the collector (DESIGN.md "Payload path").
func (e *entry) letGo() {
	if e.fill && !e.dirty && e.lends == 0 {
		driver.Recycle(e.data)
	}
}

// miss is one device read in flight and the Reads waiting for it.
// Records are pooled like deliveries, with the completion callback
// built once, so a miss allocates nothing in the cache itself.
type miss struct {
	c       *Cache
	next    *miss
	block   int64
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
		eng:      eng,
		drv:      drv,
		part:     part,
		cfg:      cfg,
		rnd:      sim.NewRand(cfg.Seed ^ 0xCAC4E),
		slab:     make([]entry, 1), // the sentinel, linked to itself
		index:    make([]int32, blocks),
		inflight: make(map[int64]*miss),
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

// touch makes slot s the most recently used.
func (c *Cache) touch(s int32) {
	if c.slab[0].next != s {
		c.unlink(s)
		c.pushFront(s)
	}
}

// remove drops slot s from the cache without writing it back.
func (c *Cache) remove(s int32) {
	c.unlink(s)
	c.setSlot(c.slab[s].block, 0)
	c.slab[s].letGo()
	c.slab[s] = entry{next: c.freeSlot} // drops the data reference
	c.freeSlot = s
	c.n--
}

// applyPressure drops a random fraction of the clean cached blocks.
func (c *Cache) applyPressure() {
	var victims []int64
	for s := c.slab[0].next; s != 0; s = c.slab[s].next {
		e := &c.slab[s]
		if !e.dirty && c.rnd.Bool(c.cfg.PressureFrac) {
			victims = append(victims, e.block)
		}
	}
	for _, b := range victims {
		c.Invalidate(b)
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
func (c *Cache) DirtyLen() int {
	var n int
	for s := c.slab[0].next; s != 0; s = c.slab[s].next {
		if c.slab[s].dirty {
			n++
		}
	}
	return n
}

// Read returns the block's contents, from the cache if present,
// otherwise from disk. The slice handed to done is the cache's copy, on
// loan: the caller must not modify it (use Write), and may call Release
// once it no longer looks at it. A caller that never does loses nothing
// but the reuse of that one buffer.
func (c *Cache) Read(block int64, done func(data []byte, err error)) {
	if s := c.slot(block); s != 0 {
		c.hits++
		c.touch(s)
		if done != nil {
			c.slab[s].lends++
		}
		c.deliverRead(c.slab[s].data, done)
		return
	}
	c.misses++
	if m := c.inflight[block]; m != nil {
		m.waiters = append(m.waiters, done)
		return
	}
	m := c.freeMiss
	if m == nil {
		m = &miss{c: c}
		m.filled = m.complete
	} else {
		c.freeMiss = m.next
	}
	m.block = block
	m.waiters = append(m.waiters, done)
	c.inflight[block] = m
	c.drv.ReadBlock(c.part, block, m.filled)
}

// complete installs what the device read and hands it to the waiters,
// one lend each.
func (m *miss) complete(data []byte, err error) {
	c, block := m.c, m.block
	delete(c.inflight, block)
	if err == nil {
		if s := c.slot(block); s != 0 {
			// Written while the read was in flight: the cache's
			// copy is the newer one and stays (with its dirty
			// flag); the fill only counts as a use. The waiters get
			// the device's buffer, which the cache keeps no
			// reference to (their Release of it matches nothing).
			c.touch(s)
		} else {
			s = c.insert(block, data, false)
			e := &c.slab[s]
			e.fill = true
			for _, w := range m.waiters {
				if w != nil {
					e.lends++
				}
			}
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

// Release ends one loan of data, the slice a Read of block delivered.
// It is matched by buffer identity: if the cache has since dropped or
// replaced that buffer (an eviction, an Invalidate, a write), or every
// loan of it has already ended, the call does nothing.
func (c *Cache) Release(block int64, data []byte) {
	s := c.slot(block)
	if s == 0 || len(data) == 0 {
		return
	}
	if e := &c.slab[s]; e.lends > 0 && &e.data[0] == &data[0] {
		e.lends--
	}
}

// Write updates the block in the cache and marks it dirty; the disk
// write is deferred to the update policy (or eviction). done fires once
// the block is in the cache — not when it reaches disk. The cache takes
// a private copy of data; callers that can hand their buffer over
// should use WriteOwned instead.
func (c *Cache) Write(block int64, data []byte, done func(err error)) {
	c.WriteOwned(block, append([]byte(nil), data...), done)
}

// WriteOwned is Write with ownership transfer: the cache installs data
// directly as its copy of the block, so the caller must not modify the
// buffer after the call. Nor does the cache, or the device it writes
// back to: the buffer stays byte for byte what was handed over, so a
// caller may hand the same buffer over again (the file system does,
// with its inode-block images). The file system's serialization paths
// never write to a block once encoded; handing the buffer over skips
// Write's defensive copy of every written block.
func (c *Cache) WriteOwned(block int64, data []byte, done func(err error)) {
	if c.wrongSize(data, done) {
		return
	}
	c.install(block, data, true)
	c.deliverWrite(done)
}

// WriteThrough updates the block in the cache (kept clean) and writes it
// to disk immediately; done fires when the disk write completes. NFS2
// servers wrote client data synchronously, so the users-workload
// experiments use this path for file data. The cache takes a private
// copy of data; see WriteThroughOwned for the ownership-transfer
// variant.
func (c *Cache) WriteThrough(block int64, data []byte, done func(err error)) {
	c.WriteThroughOwned(block, append([]byte(nil), data...), done)
}

// WriteThroughOwned is WriteThrough with ownership transfer: data
// becomes the cache's copy of the block (and is handed to the driver
// for the synchronous disk write), so the caller must not modify the
// buffer after the call; as with WriteOwned, nothing below does either.
func (c *Cache) WriteThroughOwned(block int64, data []byte, done func(err error)) {
	if c.wrongSize(data, done) {
		return
	}
	c.install(block, data, false)
	c.writebacks++
	c.drv.WriteBlock(c.part, block, data, func(_ []byte, err error) {
		if done != nil {
			done(err)
		}
	})
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
	e.letGo()
	e.data, e.dirty, e.fill, e.lends = data, dirty, false, 0
	c.touch(s)
}

// insert adds a block that is not cached, evicting (and writing back) as
// needed, and returns its slot.
func (c *Cache) insert(block int64, data []byte, dirty bool) int32 {
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
	c.setSlot(block, s)
	c.n++
	return s
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

// Sync writes every dirty block to disk, as the update daemon does. done
// fires when all write-backs have completed.
func (c *Cache) Sync(done func(err error)) {
	var dirty []int32
	for s := c.slab[0].next; s != 0; s = c.slab[s].next {
		if c.slab[s].dirty {
			dirty = append(dirty, s)
		}
	}
	if len(dirty) == 0 {
		c.deliverWrite(done)
		return
	}
	remaining := len(dirty)
	var firstErr error
	for _, s := range dirty {
		e := &c.slab[s]
		e.dirty = false
		c.writebacks++
		c.drv.WriteBlock(c.part, e.block, e.data, func(_ []byte, err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			remaining--
			if remaining == 0 && done != nil {
				done(firstErr)
			}
		})
	}
}

// StartSyncDaemon begins the periodic update policy.
func (c *Cache) StartSyncDaemon() {
	if c.syncing {
		return
	}
	c.syncing = true
	c.syncSeq++
	seq := c.syncSeq
	var tick func()
	tick = func() {
		if !c.syncing || seq != c.syncSeq {
			return
		}
		c.Sync(nil)
		c.eng.After(c.cfg.SyncPeriodMS, tick)
	}
	c.eng.After(c.cfg.SyncPeriodMS, tick)
	if c.cfg.PressurePeriodMS > 0 {
		var ptick func()
		ptick = func() {
			if !c.syncing || seq != c.syncSeq {
				return
			}
			c.applyPressure()
			c.eng.After(c.cfg.PressurePeriodMS, ptick)
		}
		c.eng.After(c.cfg.PressurePeriodMS, ptick)
	}
}

// StopSyncDaemon stops the periodic update policy (dirty blocks remain
// cached until Sync or eviction).
func (c *Cache) StopSyncDaemon() {
	c.syncing = false
	c.syncSeq++
}

// Invalidate drops a block from the cache without writing it back. The
// file system uses it when freeing blocks.
func (c *Cache) Invalidate(block int64) {
	if s := c.slot(block); s != 0 {
		c.remove(s)
	}
}
