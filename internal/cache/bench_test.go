package cache

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/geom"
	"repro/internal/label"
	"repro/internal/sim"
)

// nullDev completes every request at once, so a benchmark of the cache
// measures the cache.
type nullDev struct{ lbl *label.Label }

func (d *nullDev) BlockSize() geom.BlockSize { return geom.Block8K }
func (d *nullDev) Label() *label.Label       { return d.lbl }
func (d *nullDev) ReadBlock(_ int, _ int64, done driver.DoneFunc) {
	done(make([]byte, geom.Block8K.Bytes()), nil)
}
func (d *nullDev) WriteBlock(_ int, _ int64, _ []byte, done driver.DoneFunc) {
	if done != nil {
		done(nil, nil)
	}
}

// benchSync times one tick of the update daemon over a full 512-block
// cache — the metadata cache's size — with the given number of blocks
// dirtied since the last tick. One op is the dirtying writes, the Sync
// and the events they schedule.
func benchSync(b *testing.B, dirty int) {
	const blocks = 512
	eng := sim.NewEngine()
	dev := &nullDev{lbl: &label.Label{Parts: []label.Partition{{Size: blocks * int64(geom.Block8K.Sectors())}}}}
	c := New(eng, dev, 0, Config{CapacityBlocks: blocks})
	buf := make([]byte, geom.Block8K.Bytes())
	for blk := int64(0); blk < blocks; blk++ {
		c.WriteOwned(blk, buf, nil)
	}
	c.Sync(nil)
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < dirty; k++ {
			c.WriteOwned(int64(k*blocks/dirty), buf, nil)
		}
		c.Sync(nil)
		eng.Run()
	}
}

// BenchmarkSyncIdle is a tick with nothing dirty — most ticks of a
// night.
func BenchmarkSyncIdle(b *testing.B) { benchSync(b, 0) }

// BenchmarkSyncDirty is a tick with 16 of the 512 blocks dirty.
func BenchmarkSyncDirty(b *testing.B) { benchSync(b, 16) }
