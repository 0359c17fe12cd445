package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/blocktable"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/fs"
	"repro/internal/geom"
	"repro/internal/hotlist"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/rig"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracein"
	"repro/internal/volume"
)

// A layer driver calls one layer's public functions in a loop, in
// process, with nothing of the stack above it. Layers that sit on a
// block device run over nullDev, so what is timed is the layer itself.
// Two kinds cannot: a driver needs a disk, and a volume builds its own
// member rigs; driver.roundtrip and volume.* therefore include the
// layers beneath them (compare them with disk.read and
// driver.roundtrip to see what they add).
type layerDriver struct {
	name string
	// setup builds the layer and returns op, which performs about n
	// operations and says how many it did.
	setup func() (op func(n int) int, err error)
}

const (
	// layerBatch is the shortest batch that is timed: long enough that
	// the clock reads and the span cost nothing beside it.
	layerBatch = time.Millisecond
	// layerBudget is how long each driver is measured for.
	layerBudget = 60 * time.Millisecond
)

// runLayerDrivers runs every layer driver and returns <name>_ns and
// <name>_allocs for each. One span is recorded per timed batch.
func runLayerDrivers(tr *tracer, parent int) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, d := range layerDrivers {
		id := tr.open(parent, "layer:"+d.name)
		op, err := d.setup()
		if err != nil {
			return nil, fmt.Errorf("layer driver %s: %w", d.name, err)
		}
		// Grow the batch until it is long enough to time; the batches
		// run on the way there are the warm-up.
		n := 1
		for {
			start := time.Now()
			op(n)
			if time.Since(start) >= layerBatch || n >= 1<<20 {
				break
			}
			n *= 2
		}
		var ms0, ms1 runtime.MemStats
		var ops int64
		var spent time.Duration
		runtime.ReadMemStats(&ms0)
		for spent < layerBudget {
			start := time.Now()
			did := op(n)
			end := time.Now()
			tr.add(id, "batch", start, end, map[string]any{"ops": did})
			ops += int64(did)
			spent += end.Sub(start)
		}
		runtime.ReadMemStats(&ms1)
		out[d.name+"_ns"] = float64(spent.Nanoseconds()) / float64(ops)
		// The spans recorded above are the benchmark's own allocations:
		// one attribute map per batch, which is noise beside thousands
		// of operations.
		out[d.name+"_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)
		tr.close(id)
	}
	return out, nil
}

// nullDev is a block device with no mechanics: a block store that
// completes every request at the current simulated instant, through the
// engine like a real device, handing out private copies like one.
type nullDev struct {
	eng    *sim.Engine
	lbl    *label.Label
	blocks map[int64][]byte
	free   []*nullReq
}

// nullReq is one pending completion; pooled, so the device itself adds
// no allocation to the layer above beyond the data copy a read returns.
type nullReq struct {
	dev  *nullDev
	data []byte
	done driver.DoneFunc
}

func (r *nullReq) Call() {
	data, done := r.data, r.done
	r.data, r.done = nil, nil
	r.dev.free = append(r.dev.free, r)
	if done != nil {
		done(data, nil)
	}
}

// newNullDev returns a device presenting the Toshiba's label: one
// partition over the whole disk.
func newNullDev(eng *sim.Engine) (*nullDev, error) {
	r, err := rig.New(rig.Options{})
	if err != nil {
		return nil, err
	}
	return &nullDev{eng: eng, lbl: r.Driver.Label(), blocks: make(map[int64][]byte)}, nil
}

func (d *nullDev) complete(data []byte, done driver.DoneFunc) {
	var r *nullReq
	if n := len(d.free); n > 0 {
		r, d.free = d.free[n-1], d.free[:n-1]
	} else {
		r = &nullReq{dev: d}
	}
	r.data, r.done = data, done
	d.eng.AfterCall(0, r)
}

func (d *nullDev) ReadBlock(part int, blk int64, done driver.DoneFunc) {
	data := make([]byte, d.BlockSize().Bytes())
	copy(data, d.blocks[blk])
	d.complete(data, done)
}

func (d *nullDev) WriteBlock(part int, blk int64, data []byte, done driver.DoneFunc) {
	stored := d.blocks[blk]
	if stored == nil {
		stored = make([]byte, len(data))
		d.blocks[blk] = stored
	}
	copy(stored, data)
	d.complete(nil, done)
}

func (d *nullDev) BlockSize() geom.BlockSize { return geom.Block8K }
func (d *nullDev) Label() *label.Label       { return d.lbl }

// partitionBlocks returns the size of the device's partition 0 in blocks.
func (d *nullDev) partitionBlocks() int64 {
	p, err := d.lbl.Partition(0)
	if err != nil {
		panic(err) // rig.New always makes partition 0
	}
	return p.Size / int64(d.BlockSize().Sectors())
}

// discard is the completion callback of a request nobody waits for.
func discard([]byte, error) {}

// payload is one block of data that is not all zero.
func payload() []byte {
	b := make([]byte, geom.Block8K.Bytes())
	for i := range b {
		b[i] = byte(i*7 + 1)
	}
	return b
}

// cyl is a queued request as a head scheduler sees it.
type cyl int

func (c cyl) Cylinder() int { return int(c) }

// pushPop keeps pending events queued on an engine: each event, when it
// fires, schedules its replacement a random interval ahead, so every
// operation is one pop and one push at a constant queue depth.
func pushPop(pending int) func() (func(int) int, error) {
	return func() (func(int) int, error) {
		eng := sim.NewEngine()
		rnd := sim.NewRand(1)
		t := &ticker{eng: eng, rnd: rnd}
		for i := 0; i < pending; i++ {
			eng.AfterCall(rnd.Float64()*10, t)
		}
		return func(n int) int {
			t.left = n
			eng.Run()
			return n
		}, nil
	}
}

type ticker struct {
	eng  *sim.Engine
	rnd  *sim.Rand
	left int
}

func (t *ticker) Call() {
	t.eng.AfterCall(t.rnd.Float64()*10, t)
	if t.left--; t.left == 0 {
		t.eng.Stop()
	}
}

// volumeDriver builds a volume, lets prepare put it into the state to
// measure, and issues random single-block requests against it.
func volumeDriver(opts volume.Options, write bool, prepare func(v *volume.Volume) error) func() (func(int) int, error) {
	return func() (func(int) int, error) {
		v, err := volume.New(opts)
		if err != nil {
			return nil, err
		}
		v.Run()
		if prepare != nil {
			if err := prepare(v); err != nil {
				return nil, err
			}
		}
		rnd := sim.NewRand(1)
		data := payload()
		var failed error
		done := func(_ []byte, err error) {
			if err != nil {
				failed = err
			}
		}
		op := func(n int) int {
			for i := 0; i < n; i++ {
				if blk := rnd.Int63n(v.Blocks()); write {
					v.WriteBlock(0, blk, data, done)
				} else {
					v.ReadBlock(0, blk, done)
				}
				if i%32 == 31 {
					v.Run()
				}
			}
			v.Run()
			if failed != nil {
				panic(fmt.Sprintf("volume request failed: %v", failed))
			}
			return n
		}
		return op, nil
	}
}

// killMember reads until the member with the fault plan has died.
func killMember(v *volume.Volume) error {
	rnd := sim.NewRand(2)
	for i := 0; i < 10_000 && v.DeadMembers() == 0; i++ {
		v.ReadBlock(0, rnd.Int63n(v.Blocks()), discard)
		v.Run()
	}
	if v.DeadMembers() != 1 {
		return fmt.Errorf("%d members dead after the planned fault, want 1", v.DeadMembers())
	}
	return nil
}

// fsDriver makes a file system on nullDev with files of 8 blocks each
// and returns it with their handles.
func fsDriver(prm fs.Params, files int) (*sim.Engine, *fs.FS, []*fs.Handle, error) {
	eng := sim.NewEngine()
	dev, err := newNullDev(eng)
	if err != nil {
		return nil, nil, nil, err
	}
	f, err := fs.Newfs(eng, dev, 0, prm)
	if err != nil {
		return nil, nil, nil, err
	}
	eng.Run()
	var handles []*fs.Handle
	var failed error
	for i := 0; i < files; i++ {
		f.Create(fmt.Sprintf("/f%04d", i), func(ino fs.Ino, err error) {
			if err != nil {
				failed = err
				return
			}
			h, err := f.OpenIno(ino)
			if err != nil {
				failed = err
				return
			}
			h.WriteAt(0, 8, func(err error) {
				if err != nil {
					failed = err
				}
			})
			handles = append(handles, h)
		})
		eng.Run()
	}
	if failed != nil {
		return nil, nil, nil, failed
	}
	return eng, f, handles, nil
}

// fsReads reads one random block of a random file per operation. With
// the whole file set in the cache no read reaches the device, so the
// difference between the noatime mount and the default one is the cost
// of the access-time bookkeeping.
func fsReads(prm fs.Params) func() (func(int) int, error) {
	return func() (func(int) int, error) {
		eng, _, handles, err := fsDriver(prm, 64)
		if err != nil {
			return nil, err
		}
		rnd := sim.NewRand(1)
		return func(n int) int {
			for i := 0; i < n; i++ {
				handles[rnd.Intn(len(handles))].ReadAt(rnd.Int63n(8), 1, nil)
				if i%32 == 31 {
					eng.Run()
				}
			}
			eng.Run()
			return n
		}, nil
	}
}

// sampleTrace is a small seeded trace in each text format, and parsed.
func sampleTrace() (msr, blk []byte, recs []trace.Record, err error) {
	const records = 2000
	var buf bytes.Buffer
	if err = writeTrace(&buf, 1, records); err != nil {
		return
	}
	msr = buf.Bytes()
	if recs, err = tracein.ReadAll(bytes.NewReader(msr), tracein.FormatMSR, tracein.Options{}); err != nil {
		return
	}
	var b bytes.Buffer
	for i, r := range recs {
		rw := "R"
		if r.Write {
			rw = "W"
		}
		fmt.Fprintf(&b, "8,0 1 %d %.9f 1234 Q %s %d + 16 [bench]\n", i+1, r.TimeMS/1000, rw, r.Block*16)
	}
	return msr, b.Bytes(), recs, nil
}

// parser times one of tracein's text parsers, per record.
func parser(format tracein.Format) func() (func(int) int, error) {
	return func() (func(int) int, error) {
		msr, blk, recs, err := sampleTrace()
		if err != nil {
			return nil, err
		}
		input := msr
		if format == tracein.FormatBlkparse {
			input = blk
		}
		return func(n int) int {
			did := 0
			for did < n {
				err := tracein.Parse(bytes.NewReader(input), format, tracein.Options{}, func(trace.Record) error {
					did++
					return nil
				})
				if err != nil {
					panic(err)
				}
			}
			if did%len(recs) != 0 {
				panic(fmt.Sprintf("%v parser emitted %d records from passes of %d", format, did, len(recs)))
			}
			return did
		}, nil
	}
}

var layerDrivers = []layerDriver{
	{name: "sim.push_pop_64", setup: pushPop(64)},
	{name: "sim.push_pop_4096", setup: pushPop(4096)},
	{name: "sched.scan_pick", setup: func() (func(int) int, error) {
		s := sched.NewSCAN()
		rnd := sim.NewRand(1)
		pending := make([]sched.Cylindered, 32)
		for i := range pending {
			pending[i] = cyl(rnd.Intn(815))
		}
		head := 400
		return func(n int) int {
			for i := 0; i < n; i++ {
				// Serve the pick and queue a new arrival in its place.
				p := s.Pick(head, pending)
				head = pending[p].Cylinder()
				pending[p] = cyl(rnd.Intn(815))
			}
			return n
		}, nil
	}},
	{name: "disk.read", setup: diskOps(func(d *disk.Disk, now float64, sector int64) (disk.Timing, error) {
		_, tm, err := d.Read(now, sector, 16)
		return tm, err
	})},
	{name: "disk.write_zero", setup: diskOps(func() func(*disk.Disk, float64, int64) (disk.Timing, error) {
		zero := make([]byte, geom.Block8K.Bytes())
		return func(d *disk.Disk, now float64, sector int64) (disk.Timing, error) {
			return d.Write(now, sector, 16, zero)
		}
	}())},
	{name: "disk.write_data", setup: diskOps(func() func(*disk.Disk, float64, int64) (disk.Timing, error) {
		data := payload()
		return func(d *disk.Disk, now float64, sector int64) (disk.Timing, error) {
			return d.Write(now, sector, 16, data)
		}
	}())},
	{name: "driver.roundtrip", setup: func() (func(int) int, error) {
		r, err := rig.New(rig.Options{ReservedCyls: 48})
		if err != nil {
			return nil, err
		}
		nblocks := r.PartitionBlocks(0)
		rnd := sim.NewRand(1)
		op := func(n int) int {
			for i := 0; i < n; i++ {
				r.Driver.ReadBlock(0, rnd.Int63n(nblocks), nil)
				if i%64 == 63 {
					r.Eng.Run()
				}
			}
			r.Eng.Run()
			return n
		}
		return op, nil
	}},
	{name: "blocktable.encode", setup: func() (func(int) int, error) {
		t := blocktable.New(geom.Block8K)
		for i := int64(0); i < 1018; i++ {
			if err := t.Add(i*16*7, 100_000+i*16); err != nil {
				return nil, err
			}
		}
		var buf []byte
		return func(n int) int {
			for i := 0; i < n; i++ {
				buf = t.EncodeTo(buf[:0])
			}
			return n
		}, nil
	}},
	{name: "hotlist.observe", setup: func() (func(int) int, error) {
		h := hotlist.NewExact()
		rnd := sim.NewRand(1)
		zipf := sim.NewZipf(4000, 1.2)
		return func(n int) int {
			for i := 0; i < n; i++ {
				h.Observe(int64(zipf.Rank(rnd)) * 16)
			}
			return n
		}, nil
	}},
	{name: "core.place_organpipe", setup: func() (func(int) int, error) {
		r, err := rig.New(rig.Options{ReservedCyls: 48})
		if err != nil {
			return nil, err
		}
		slots := r.Driver.ReservedSlots()
		hot := make([]hotlist.BlockCount, 3500)
		for i := range hot {
			hot[i] = hotlist.BlockCount{Block: int64(i) * 16 * 3, Count: int64(len(hot) - i)}
		}
		return func(n int) int {
			for i := 0; i < n; i++ {
				if moves := (core.OrganPipe{}).Place(hot, slots, len(hot), geom.Block8K); len(moves) == 0 {
					panic("organ-pipe placed nothing")
				}
			}
			return n
		}, nil
	}},
	{name: "cache.hit", setup: cacheReads(256)},
	{name: "cache.miss", setup: cacheReads(1 << 14)},
	{name: "fs.read_warm", setup: fsReads(fs.Params{NoAtime: true})},
	{name: "fs.atime_touch", setup: fsReads(fs.Params{})},
	{name: "fs.write", setup: func() (func(int) int, error) {
		eng, _, handles, err := fsDriver(fs.Params{}, 64)
		if err != nil {
			return nil, err
		}
		rnd := sim.NewRand(1)
		return func(n int) int {
			for i := 0; i < n; i++ {
				handles[rnd.Intn(len(handles))].WriteAt(rnd.Int63n(8), 1, nil)
				if i%32 == 31 {
					eng.Run()
				}
			}
			eng.Run()
			return n
		}, nil
	}},
	{name: "fs.create", setup: func() (func(int) int, error) {
		eng, f, _, err := fsDriver(fs.Params{}, 0)
		if err != nil {
			return nil, err
		}
		// A fresh directory every 64 files keeps the directory scan,
		// which grows with the entry count, out of the figure.
		made := 0
		var failed error
		fail := func(_ fs.Ino, err error) {
			if err != nil {
				failed = err
			}
		}
		return func(n int) int {
			for i := 0; i < n; i++ {
				dir := fmt.Sprintf("/d%05d", made/64)
				if made%64 == 0 {
					f.Mkdir(dir, fail)
					eng.Run()
				}
				f.Create(fmt.Sprintf("%s/f%02d", dir, made%64), fail)
				eng.Run()
				made++
			}
			if failed != nil {
				panic(fmt.Sprintf("fs.create: %v", failed))
			}
			return n
		}, nil
	}},
	{name: "volume.stripe_read",
		setup: volumeDriver(volume.Options{Layout: volume.Stripe, Disks: 4}, false, nil)},
	{name: "volume.mirror_write",
		setup: volumeDriver(volume.Options{Layout: volume.Mirror, Disks: 2}, true, nil)},
	{name: "volume.raid5_rmw",
		setup: volumeDriver(volume.Options{Layout: volume.RAID5, Disks: 4}, true, nil)},
	{name: "volume.raid6_degraded_read",
		setup: volumeDriver(volume.Options{Layout: volume.RAID6, Disks: 6,
			Faults: []*fault.Plan{nil, {CrashAfterOps: 50}}}, false, killMember)},
	{name: "server.admit", setup: func() (func(int) int, error) {
		eng := sim.NewEngine()
		dev, err := newNullDev(eng)
		if err != nil {
			return nil, err
		}
		const tenants = 1000
		srv, err := server.New(eng, dev, server.Config{Tenants: tenants})
		if err != nil {
			return nil, err
		}
		classes := len(server.DefaultClasses())
		nblocks := dev.partitionBlocks()
		rnd := sim.NewRand(1)
		return func(n int) int {
			for i := 0; i < n; i++ {
				tenant := rnd.Intn(tenants)
				srv.Read(tenant, tenant%classes, rnd.Int63n(nblocks), discard)
				if i%16 == 15 {
					eng.Run()
				}
			}
			eng.Run()
			return n
		}, nil
	}},
	{name: "tracein.parse_msr", setup: parser(tracein.FormatMSR)},
	{name: "tracein.parse_blkparse", setup: parser(tracein.FormatBlkparse)},
	{name: "tracein.scale", setup: func() (func(int) int, error) {
		_, _, recs, err := sampleTrace()
		if err != nil {
			return nil, err
		}
		return func(n int) int {
			did := 0
			for did < n {
				did += len(traceScale.Apply(recs))
			}
			return did
		}, nil
	}},
	{name: "tracein.replay", setup: func() (func(int) int, error) {
		_, _, recs, err := sampleTrace()
		if err != nil {
			return nil, err
		}
		eng := sim.NewEngine()
		dev, err := newNullDev(eng)
		if err != nil {
			return nil, err
		}
		return func(n int) int {
			did := 0
			for did < n {
				rep, err := tracein.NewReplayer(eng, dev, recs, tracein.ReplayOptions{})
				if err != nil {
					panic(err)
				}
				rep.Start(func(res tracein.Result) { did += res.Completed })
				eng.Run()
			}
			return did
		}, nil
	}},
	{name: "metrics.hist_record", setup: func() (func(int) int, error) {
		h := metrics.NewHistogram(metrics.HistogramOpts{})
		rnd := sim.NewRand(1)
		return func(n int) int {
			for i := 0; i < n; i++ {
				h.Record(rnd.Float64() * 500)
			}
			return n
		}, nil
	}},
}

// diskOps times one mechanical-model operation on random block-aligned
// sectors, the clock advanced by each operation's own service time.
func diskOps(do func(d *disk.Disk, now float64, sector int64) (disk.Timing, error)) func() (func(int) int, error) {
	return func() (func(int) int, error) {
		d, err := disk.New(disk.Toshiba())
		if err != nil {
			return nil, err
		}
		rnd := sim.NewRand(1)
		total := d.Geom().TotalSectors()
		now := 0.0
		return func(n int) int {
			for i := 0; i < n; i++ {
				tm, err := do(d, now, rnd.Int63n(total-16)/16*16)
				if err != nil {
					panic(err)
				}
				now += tm.TotalMS()
			}
			return n
		}, nil
	}
}

// cacheReads reads random blocks out of a working set through a
// 1024-block cache over nullDev: a set that fits is all hits once warm,
// one sixteen times the cache is nearly all misses.
func cacheReads(workingSet int64) func() (func(int) int, error) {
	return func() (func(int) int, error) {
		eng := sim.NewEngine()
		dev, err := newNullDev(eng)
		if err != nil {
			return nil, err
		}
		c := cache.New(eng, dev, 0, cache.Config{CapacityBlocks: 1024})
		rnd := sim.NewRand(1)
		op := func(n int) int {
			for i := 0; i < n; i++ {
				c.Read(rnd.Int63n(workingSet), discard)
				if i%32 == 31 {
					eng.Run()
				}
			}
			eng.Run()
			return n
		}
		op(int(workingSet)) // warm
		return op, nil
	}
}
