package cache

import (
	"bytes"
	"testing"

	"repro/internal/rig"
	"repro/internal/sim"
)

func newRig(t *testing.T) (*rig.Rig, *Cache) {
	t.Helper()
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		t.Fatal(err)
	}
	c := New(r.Eng, r.Driver, 0, Config{CapacityBlocks: 8, SyncPeriodMS: 1000})
	return r, c
}

func block(r *rig.Rig, b byte) []byte {
	return bytes.Repeat([]byte{b}, r.Driver.BlockSize().Bytes())
}

func TestReadMissThenHit(t *testing.T) {
	r, c := newRig(t)
	var first, second []byte
	c.Read(10, func(data []byte, err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		first = data
	})
	r.Eng.Run()
	c.Read(10, func(data []byte, err error) { second = data })
	r.Eng.Run()
	if first == nil || second == nil {
		t.Fatal("reads did not complete")
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d", hits, misses)
	}
}

func TestHitIsFasterThanMiss(t *testing.T) {
	r, c := newRig(t)
	start := r.Eng.Now()
	var missTime float64
	c.Read(10, func(_ []byte, _ error) { missTime = r.Eng.Now() - start })
	r.Eng.Run()
	start2 := r.Eng.Now()
	var hitTime float64
	c.Read(10, func(_ []byte, _ error) { hitTime = r.Eng.Now() - start2 })
	r.Eng.Run()
	if missTime <= 0 {
		t.Error("miss took no time")
	}
	if hitTime != 0 {
		t.Errorf("hit took %v ms, want 0 (no disk I/O)", hitTime)
	}
}

func TestWriteIsDeferred(t *testing.T) {
	r, c := newRig(t)
	data := block(r, 0xAB)
	c.Write(5, data, nil)
	r.Eng.Run()
	// Nothing on disk yet.
	st := r.Driver.PeekStats()
	if n := st.WriteSide.Count(); n != 0 {
		t.Errorf("%d disk writes before sync", n)
	}
	if c.DirtyLen() != 1 {
		t.Errorf("DirtyLen = %d", c.DirtyLen())
	}
	var serr error
	c.Sync(func(err error) { serr = err })
	r.Eng.Run()
	if serr != nil {
		t.Fatal(serr)
	}
	if n := r.Driver.PeekStats().WriteSide.Count(); n != 1 {
		t.Errorf("%d disk writes after sync, want 1", n)
	}
	if c.DirtyLen() != 0 {
		t.Error("block still dirty after sync")
	}
	// The data actually reached the disk: a fresh read after
	// invalidation returns it.
	c.Invalidate(5)
	var got []byte
	c.Read(5, func(d []byte, err error) { got = d })
	r.Eng.Run()
	if !bytes.Equal(got, data) {
		t.Error("synced data not on disk")
	}
}

func TestWriteThenReadFromCache(t *testing.T) {
	r, c := newRig(t)
	data := block(r, 0x31)
	c.Write(7, data, nil)
	var got []byte
	c.Read(7, func(d []byte, err error) { got = d })
	r.Eng.Run()
	if !bytes.Equal(got, data) {
		t.Error("read did not see cached write")
	}
}

func TestWriteSizeValidation(t *testing.T) {
	r, c := newRig(t)
	var got error
	c.Write(1, []byte{1, 2, 3}, func(err error) { got = err })
	r.Eng.Run()
	if got == nil {
		t.Error("short write accepted")
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	r, c := newRig(t) // capacity 8
	data := block(r, 0x66)
	c.Write(0, data, nil)
	r.Eng.Run()
	// Fill the cache well past capacity with reads.
	for i := int64(100); i < 120; i++ {
		c.Read(i, nil)
		r.Eng.Run()
	}
	if c.Len() > 8 {
		t.Errorf("cache grew to %d blocks", c.Len())
	}
	_, _, wb := c.Stats()
	if wb != 1 {
		t.Errorf("writebacks = %d, want 1", wb)
	}
	r.Eng.Run()
	// Evicted dirty block must be readable from disk.
	var got []byte
	c.Read(0, func(d []byte, err error) { got = d })
	r.Eng.Run()
	if !bytes.Equal(got, data) {
		t.Error("evicted dirty block lost")
	}
}

func TestConcurrentMissesShareOneDiskRead(t *testing.T) {
	r, c := newRig(t)
	var done int
	for i := 0; i < 5; i++ {
		c.Read(42, func(_ []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			done++
		})
	}
	r.Eng.Run()
	if done != 5 {
		t.Fatalf("%d of 5 reads completed", done)
	}
	if n := r.Driver.PeekStats().ReadSide.Count(); n != 1 {
		t.Errorf("%d disk reads for 5 concurrent misses", n)
	}
}

// A write that arrives while a miss on the same block is in flight is
// newer than what the disk returns: the fill must leave it — contents
// and dirty flag — alone, or the next sync writes the stale image over
// it. The miss's own waiters still get what the device read.
func TestFillKeepsNewerWrite(t *testing.T) {
	for _, through := range []bool{false, true} {
		r, c := newRig(t)
		want := block(r, 0xAB)
		var missed []byte
		c.Read(10, func(data []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			missed = data
		})
		if through {
			c.WriteThroughOwned(10, want, nil)
		} else {
			c.WriteOwned(10, want, nil)
		}
		r.Eng.Run()
		if missed == nil || missed[0] != 0 {
			t.Fatalf("through=%v: the miss delivered %v, want the disk's zero block", through, missed[:1])
		}
		var got []byte
		c.Read(10, func(data []byte, _ error) { got = data })
		r.Eng.Run()
		if !bytes.Equal(got, want) {
			t.Errorf("through=%v: cache holds %#x after fill, want the written 0xAB", through, got[0])
		}
		if hits, misses, _ := c.Stats(); hits != 1 || misses != 1 {
			t.Errorf("through=%v: hits=%d misses=%d, want 1 and 1", through, hits, misses)
		}
		wantDirty := 1
		if through {
			wantDirty = 0
		}
		if c.DirtyLen() != wantDirty {
			t.Errorf("through=%v: DirtyLen = %d after fill, want %d", through, c.DirtyLen(), wantDirty)
		}
		// And the disk ends up with the write, not the image read before it.
		c.Sync(nil)
		r.Eng.Run()
		c.Invalidate(10)
		c.Read(10, func(data []byte, _ error) { got = data })
		r.Eng.Run()
		if !bytes.Equal(got, want) {
			t.Errorf("through=%v: disk holds %#x after sync, want the written 0xAB", through, got[0])
		}
	}
}

// A block number the partition does not have is outside the direct
// index, and behaves as it always has: a read of it fails at the device
// and caches nothing; a write of it is cached, served from the cache,
// and refused by the device when it gets there.
func TestBlockOutsidePartition(t *testing.T) {
	r, c := newRig(t)
	for _, outside := range []int64{int64(len(c.index)), 1 << 40, -1} {
		var rerr error
		c.Read(outside, func(_ []byte, err error) { rerr = err })
		r.Eng.Run()
		if rerr == nil || c.Len() != 0 {
			t.Fatalf("block %d: read err = %v with %d cached, want a device error and nothing cached", outside, rerr, c.Len())
		}
		data := block(r, 0x5A)
		c.WriteOwned(outside, data, nil)
		var got []byte
		c.Read(outside, func(d []byte, _ error) { got = d })
		r.Eng.Run()
		if !bytes.Equal(got, data) || c.Len() != 1 || c.DirtyLen() != 1 {
			t.Errorf("block %d: written block not served from the cache (len=%d dirty=%d)", outside, c.Len(), c.DirtyLen())
		}
		var serr error
		c.Sync(func(err error) { serr = err })
		r.Eng.Run()
		if serr == nil {
			t.Errorf("block %d: the device accepted the write-back", outside)
		}
		c.Invalidate(outside)
		if c.Len() != 0 || len(c.outside) != 0 {
			t.Errorf("block %d: still cached after Invalidate (len=%d, outside=%d)", outside, c.Len(), len(c.outside))
		}
	}
}

func TestSyncDaemonFlushesPeriodically(t *testing.T) {
	r, c := newRig(t) // sync period 1000 ms
	c.StartSyncDaemon()
	c.Write(3, block(r, 1), nil)
	r.Eng.RunUntil(500)
	if n := r.Driver.PeekStats().WriteSide.Count(); n != 0 {
		t.Errorf("flushed before the period elapsed (%d writes)", n)
	}
	r.Eng.RunUntil(1500)
	if n := r.Driver.PeekStats().WriteSide.Count(); n != 1 {
		t.Errorf("daemon flushed %d writes, want 1", n)
	}
	// Dirty again; daemon keeps running.
	c.Write(4, block(r, 2), nil)
	r.Eng.RunUntil(2500)
	if n := r.Driver.PeekStats().WriteSide.Count(); n != 2 {
		t.Errorf("second flush: %d writes", n)
	}
	c.StopSyncDaemon()
	c.Write(5, block(r, 3), nil)
	r.Eng.RunUntil(10000)
	if n := r.Driver.PeekStats().WriteSide.Count(); n != 2 {
		t.Errorf("daemon still flushing after stop (%d writes)", n)
	}
}

func TestSyncProducesWriteBurst(t *testing.T) {
	// Many dirty blocks flushed together arrive at the driver as one
	// burst — the arrival pattern the paper attributes write queueing to.
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		t.Fatal(err)
	}
	c := New(r.Eng, r.Driver, 0, Config{CapacityBlocks: 64, SyncPeriodMS: 60000})
	for i := int64(0); i < 40; i++ {
		c.Write(i*50, block(r, byte(i)), nil)
	}
	r.Eng.Run()
	c.Sync(nil)
	r.Eng.Run()
	st := r.Driver.ReadStats()
	if st.WriteSide.Count() != 40 {
		t.Fatalf("%d writes", st.WriteSide.Count())
	}
	if st.WriteSide.MeanQueueingMS() <= 0 {
		t.Error("burst produced no write queueing")
	}
}

func TestSyncEmptyCache(t *testing.T) {
	r, c := newRig(t)
	var called bool
	c.Sync(func(err error) {
		if err != nil {
			t.Errorf("sync: %v", err)
		}
		called = true
	})
	r.Eng.Run()
	if !called {
		t.Error("sync of empty cache never completed")
	}
}

func TestInvalidate(t *testing.T) {
	r, c := newRig(t)
	c.Read(9, nil)
	r.Eng.Run()
	c.Invalidate(9)
	c.Read(9, nil)
	r.Eng.Run()
	_, misses, _ := c.Stats()
	if misses != 2 {
		t.Errorf("misses = %d, want 2 after invalidation", misses)
	}
}

func TestWriteThrough(t *testing.T) {
	r, c := newRig(t)
	data := block(r, 0x77)
	var werr error
	c.WriteThrough(9, data, func(err error) { werr = err })
	r.Eng.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	// The write reached the disk immediately.
	if n := r.Driver.PeekStats().WriteSide.Count(); n != 1 {
		t.Errorf("%d disk writes after write-through, want 1", n)
	}
	// The block is cached clean: sync produces nothing further.
	if c.DirtyLen() != 0 {
		t.Error("write-through left the block dirty")
	}
	var got []byte
	c.Read(9, func(d []byte, err error) { got = d })
	r.Eng.Run()
	if !bytes.Equal(got, data) {
		t.Error("write-through data not visible in cache")
	}
}

func TestWriteThroughSizeValidation(t *testing.T) {
	r, c := newRig(t)
	var werr error
	c.WriteThrough(1, []byte{1}, func(err error) { werr = err })
	r.Eng.Run()
	if werr == nil {
		t.Error("short write-through accepted")
	}
}

func TestPressureDropsCleanBlocks(t *testing.T) {
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		t.Fatal(err)
	}
	c := New(r.Eng, r.Driver, 0, Config{
		CapacityBlocks:   64,
		SyncPeriodMS:     1000,
		PressurePeriodMS: 1000,
		PressureFrac:     1.0, // drop everything each period
		Seed:             7,
	})
	for i := int64(0); i < 20; i++ {
		c.Read(i*10, nil)
	}
	r.Eng.Run()
	if c.Len() != 20 {
		t.Fatalf("cache holds %d blocks", c.Len())
	}
	c.StartSyncDaemon()
	r.Eng.RunUntil(r.Eng.Now() + 1500)
	if c.Len() != 0 {
		t.Errorf("pressure left %d blocks cached", c.Len())
	}
	c.StopSyncDaemon()
}

func TestPressureSparesDirtyBlocks(t *testing.T) {
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		t.Fatal(err)
	}
	c := New(r.Eng, r.Driver, 0, Config{
		CapacityBlocks:   64,
		SyncPeriodMS:     1e9, // effectively never sync
		PressurePeriodMS: 1000,
		PressureFrac:     1.0,
		Seed:             7,
	})
	blockData := make([]byte, r.Driver.BlockSize().Bytes())
	c.Write(5, blockData, nil)
	r.Eng.Run()
	c.StartSyncDaemon()
	r.Eng.RunUntil(r.Eng.Now() + 2500)
	if c.DirtyLen() != 1 {
		t.Errorf("pressure evicted a dirty block (dirty=%d)", c.DirtyLen())
	}
	c.StopSyncDaemon()
}

// The hit and deferred-write paths are the hottest events in the whole
// stack — one zero-delay delivery each — and their completion records
// are pooled (see delivery). Steady state must stay allocation-free;
// a regression here multiplies across every simulated file operation.

func TestReadHitZeroAllocs(t *testing.T) {
	r, c := newRig(t)
	c.Read(10, nil) // prime: miss brings the block in
	r.Eng.Run()
	op := func() {
		c.Read(10, func([]byte, error) {})
		r.Eng.Run()
	}
	for i := 0; i < 16; i++ {
		op()
	}
	if n := testing.AllocsPerRun(200, op); n != 0 {
		t.Errorf("cached read round trip: %v allocs, want 0", n)
	}
}

func TestDeferredWriteZeroAllocs(t *testing.T) {
	r, c := newRig(t)
	data := block(r, 0xCD)
	op := func() {
		c.WriteOwned(5, data, func(error) {})
		r.Eng.Run()
	}
	for i := 0; i < 16; i++ {
		op()
	}
	if n := testing.AllocsPerRun(200, op); n != 0 {
		t.Errorf("deferred write round trip: %v allocs, want 0", n)
	}
}

// One buffer handed to WriteOwned and WriteThroughOwned for several
// blocks, over and over, as the file system does with an inode-block
// image: the cache and everything beneath it may only read it. Checked
// across write-back by Sync, write-back by eviction and a re-read from
// disk.
func TestOwnedPayloadNeverModified(t *testing.T) {
	r, c := newRig(t) // 8 blocks
	shared := make([]byte, r.Driver.BlockSize().Bytes())
	for i := range shared {
		shared[i] = byte(i*13) ^ byte(i>>8)
	}
	want := append([]byte(nil), shared...)
	check := func(when string) {
		t.Helper()
		if !bytes.Equal(shared, want) {
			t.Fatalf("%s: the shared payload was modified", when)
		}
	}

	c.WriteOwned(1, shared, nil)
	c.WriteOwned(1, shared, nil) // the atime pattern: same block, same bytes
	c.WriteThroughOwned(2, shared, nil)
	r.Eng.Run()
	check("after the writes")
	c.Sync(nil)
	r.Eng.Run()
	check("after Sync wrote it back")

	// Dirty again, then push it out with other blocks: eviction writes
	// it back while the slot is reused.
	c.WriteOwned(1, shared, nil)
	for b := int64(100); b < 120; b++ {
		c.Write(b, block(r, byte(b)), nil)
	}
	r.Eng.Run()
	if _, _, wb := c.Stats(); wb < 3 {
		t.Fatalf("only %d write-backs: block 1 was never evicted", wb)
	}
	check("after eviction wrote it back")

	for _, b := range []int64{1, 2} {
		c.Read(b, func(data []byte, err error) {
			if err != nil || !bytes.Equal(data, want) {
				t.Errorf("block %d read back wrong (err=%v)", b, err)
			}
		})
		r.Eng.Run()
	}
	check("after reading the blocks back from disk")
}

// However the cache loses a block, what a reader was given stays as it
// was, and the block reads back right: the cache never writes into a
// buffer it delivered — the device's page for a fill — nor reuses one.
// (The test keeps the name it had when the cache counted loans of its
// device fills and recycled a fill once every loan had ended.)
func TestLetGoRespectsLoans(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lose  func(r *rig.Rig, c *Cache)
		after byte // what block 10 reads as afterwards
	}{
		{"eviction", func(r *rig.Rig, c *Cache) {
			for b := int64(100); b < 108; b++ { // the cache holds 8
				c.Read(b, nil)
			}
		}, 0xA1},
		{"invalidate", func(r *rig.Rig, c *Cache) { c.Invalidate(10) }, 0xA1},
		{"pressure", func(r *rig.Rig, c *Cache) {
			c.cfg.PressureFrac = 1
			c.applyPressure()
		}, 0xA1},
		{"write", func(r *rig.Rig, c *Cache) { c.WriteOwned(10, block(r, 0x5A), nil) }, 0x5A},
		{"write-through", func(r *rig.Rig, c *Cache) { c.WriteThroughOwned(10, block(r, 0x5A), nil) }, 0x5A},
	} {
		r, c := newRig(t)
		c.Write(10, block(r, 0xA1), nil)
		c.Sync(nil)
		r.Eng.Run()
		c.Invalidate(10) // the next read is a device fill
		var got [][]byte
		for i := 0; i < 2; i++ { // a miss, then a hit: one buffer, twice
			c.Read(10, func(data []byte, err error) {
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, data)
			})
			r.Eng.Run()
		}
		if &got[0][0] != &got[1][0] {
			t.Fatalf("%s: the hit delivered another buffer than the fill", tc.name)
		}
		tc.lose(r, c)
		r.Eng.Run()
		if !bytes.Equal(got[0], block(r, 0xA1)) {
			t.Errorf("%s: a delivered buffer changed when the cache let the block go", tc.name)
		}
		c.Read(10, func(data []byte, err error) {
			if err != nil || !bytes.Equal(data, block(r, tc.after)) {
				t.Errorf("%s: block 10 reads back wrong (err=%v)", tc.name, err)
			}
		})
		r.Eng.Run()
	}
}

// A full cache that misses runs on what it already has: the miss record,
// its waiter list and its completion callback are pooled, the slot the
// eviction frees is reused, and the device lends the block it reads.
func TestMissEvictSteadyStateZeroAllocs(t *testing.T) {
	r, c := newRig(t) // 8 blocks
	// Half the blocks are written, half never: misses of both kinds.
	for b := int64(0); b < 16; b += 2 {
		c.WriteThrough(b, block(r, byte(b+1)), nil)
		c.Invalidate(b)
	}
	r.Eng.Run()
	next := int64(0)
	read := func(_ []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	op := func() {
		next = (next + 1) % 16
		c.Read(next, read)
		r.Eng.Run()
	}
	for i := 0; i < 64; i++ {
		op()
	}
	if n := testing.AllocsPerRun(200, op); n != 0 {
		t.Errorf("miss + evict round trip on a full cache: %v allocs, want 0", n)
	}
	if hits, _, _ := c.Stats(); hits != 0 {
		t.Fatalf("%d hits: the round robin was meant to miss every time", hits)
	}
}

// BenchmarkReadHit is the path most events of a cached file system take:
// a full 1024-block cache, reads that all hit, blocks picked by the
// file-popularity Zipf the system workload uses, so the recency list is
// reordered on almost every one.
func BenchmarkReadHit(b *testing.B) {
	r, err := rig.New(rig.Options{ReservedCyls: 48})
	if err != nil {
		b.Fatal(err)
	}
	const blocks = 1024
	c := New(r.Eng, r.Driver, 0, Config{CapacityBlocks: blocks})
	for i := int64(0); i < blocks; i++ {
		c.Read(i*7, nil) // spread over the partition, as files are
	}
	r.Eng.Run()
	rnd, zipf := sim.NewRand(1), sim.NewZipf(blocks, 1.9)
	picks := make([]int64, 1<<14)
	for i := range picks {
		picks[i] = int64(zipf.Rank(rnd)) * 7
	}
	done := func([]byte, error) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(picks[i&(len(picks)-1)], done)
		if i%32 == 31 {
			r.Eng.Run()
		}
	}
	r.Eng.Run()
	if hits, misses, _ := c.Stats(); misses != blocks || hits != int64(b.N) {
		b.Fatalf("hits=%d misses=%d, want %d and %d", hits, misses, b.N, blocks)
	}
}
