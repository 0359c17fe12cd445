package workload

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/driver"
	"repro/internal/rig"
	"repro/internal/sim"
)

// recordingServer captures every request the tenant workload issues and
// answers it after a fixed delay.
type recordingServer struct {
	eng     *sim.Engine
	delayMS float64
	failN   int // fail the first failN requests
	n       int
	tenants []int
	classes []int
	blocks  []int64
	writes  int
}

func (s *recordingServer) submit(tenant, class int, blk int64, done driver.DoneFunc) {
	s.n++
	s.tenants = append(s.tenants, tenant)
	s.classes = append(s.classes, class)
	s.blocks = append(s.blocks, blk)
	fail := s.n <= s.failN
	s.eng.After(s.delayMS, func() {
		if fail {
			done(nil, fmt.Errorf("recordingServer: injected failure"))
			return
		}
		done(nil, nil)
	})
}

func (s *recordingServer) Read(tenant, class int, blk int64, done driver.DoneFunc) {
	s.submit(tenant, class, blk, done)
}

func (s *recordingServer) Write(tenant, class int, blk int64, done driver.DoneFunc) {
	s.writes++
	s.submit(tenant, class, blk, done)
}

func runTenants(t *testing.T, cfg TenantConfig, blocks int64, durMS float64) (*Tenants, *recordingServer) {
	t.Helper()
	eng := sim.NewEngine()
	srv := &recordingServer{eng: eng, delayMS: 5}
	w, err := NewTenants(eng, srv, blocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var finished bool
	w.Run(0, durMS, func(err error) {
		if err != nil {
			t.Errorf("workload finished with %v", err)
		}
		finished = true
	})
	eng.Run()
	if !finished {
		t.Fatal("workload never signalled completion")
	}
	return w, srv
}

func TestTenantsIssueShape(t *testing.T) {
	const blocks = 10_000
	w, srv := runTenants(t, TenantConfig{Tenants: 100, Classes: 3, RatePerSec: 200, Seed: 11}, blocks, 60_000)
	if w.Issued() == 0 || w.Issued() != w.Responded() {
		t.Fatalf("issued %d, responded %d", w.Issued(), w.Responded())
	}
	if w.Failed() != 0 {
		t.Errorf("failed = %d with a healthy server", w.Failed())
	}
	if int64(srv.n) != w.Issued() {
		t.Fatalf("server saw %d requests, workload issued %d", srv.n, w.Issued())
	}
	// ~200/s over a minute: the Poisson stream must land near its rate.
	if srv.n < 9000 || srv.n > 15000 {
		t.Errorf("%d requests for 60 s at 200/s", srv.n)
	}
	if srv.writes == 0 || srv.writes > srv.n/2 {
		t.Errorf("%d writes of %d requests at ReadFrac 0.8", srv.writes, srv.n)
	}
	counts := map[int]int{}
	for i, tenant := range srv.tenants {
		if tenant < 0 || tenant >= 100 {
			t.Fatalf("tenant %d out of range", tenant)
		}
		if srv.classes[i] != tenant%3 {
			t.Fatalf("tenant %d issued class %d, want %d", tenant, srv.classes[i], tenant%3)
		}
		if srv.blocks[i] < 0 || srv.blocks[i] >= blocks {
			t.Fatalf("block %d out of range", srv.blocks[i])
		}
		counts[tenant]++
	}
	// Popularity is Zipf by tenant id: rank 0 must dominate the tail.
	if counts[0] <= counts[99] {
		t.Errorf("tenant 0 issued %d, tenant 99 issued %d; want heavy head", counts[0], counts[99])
	}
}

func TestTenantsNoisyNeighbor(t *testing.T) {
	cfg := TenantConfig{Tenants: 50, RatePerSec: 20, Noisy: true, NoisyTenant: 7, NoisyRatePerSec: 400, Seed: 3}
	w, srv := runTenants(t, cfg, 1000, 30_000)
	var noisy int
	for _, tenant := range srv.tenants {
		if tenant == 7 {
			noisy++
		}
	}
	if frac := float64(noisy) / float64(srv.n); frac < 0.9 {
		t.Errorf("noisy tenant issued %.0f%% of %d requests, want the vast majority", frac*100, srv.n)
	}
	if w.Failed() != 0 {
		t.Errorf("failed = %d", w.Failed())
	}
}

func TestTenantsCountsFailures(t *testing.T) {
	eng := sim.NewEngine()
	srv := &recordingServer{eng: eng, delayMS: 1, failN: 1 << 30}
	w, err := NewTenants(eng, srv, 100, TenantConfig{Tenants: 5, RatePerSec: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(0, 5_000, func(error) {})
	eng.Run()
	if w.Issued() == 0 || w.Failed() != w.Issued() {
		t.Errorf("issued %d, failed %d with an always-failing server", w.Issued(), w.Failed())
	}
}

func TestTenantsValidation(t *testing.T) {
	eng := sim.NewEngine()
	srv := &recordingServer{eng: eng}
	if _, err := NewTenants(eng, srv, 0, TenantConfig{}); err == nil {
		t.Error("zero-block device accepted")
	}
	if _, err := NewTenants(eng, srv, 100, TenantConfig{Tenants: 5, Noisy: true, NoisyTenant: 5}); err == nil {
		t.Error("out-of-range noisy tenant accepted")
	}
	if _, err := NewTenants(eng, srv, 100, TenantConfig{Tenants: 5, Noisy: true, NoisyTenant: -1}); err == nil {
		t.Error("negative noisy tenant accepted")
	}
}

// TestTenantsDeterminism replays the workload twice and requires the
// identical request sequence — tenant, class, block, and count.
func TestTenantsDeterminism(t *testing.T) {
	const seed = 0x7EA7
	t.Logf("seed=%#x", seed)
	run := func() *recordingServer {
		eng := sim.NewEngine()
		srv := &recordingServer{eng: eng, delayMS: 2}
		w, err := NewTenants(eng, srv, 5000, TenantConfig{
			Tenants: 1000, RatePerSec: 100, Noisy: true, NoisyTenant: 2, NoisyRatePerSec: 50, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Run(0, 30_000, func(error) {})
		eng.Run()
		return srv
	}
	a, b := run(), run()
	if a.n != b.n || a.writes != b.writes {
		t.Fatalf("replay sizes differ: %d/%d vs %d/%d", a.n, a.writes, b.n, b.writes)
	}
	for i := range a.tenants {
		if a.tenants[i] != b.tenants[i] || a.classes[i] != b.classes[i] || a.blocks[i] != b.blocks[i] {
			t.Fatalf("request %d differs between identical replays", i)
		}
	}
	if a.n == 0 {
		t.Fatal("no requests issued")
	}
}

// rigServer is a BlockServer straight onto one simulated disk: a read
// hands the disk's buffer to the workload, which recycles it. Every
// block holds its own number interleaved with the server's tag, checked
// before the buffer moves on, so a buffer that reaches this engine
// while the other one still writes to it shows as wrong bytes (and as a
// data race).
type rigServer struct {
	t     *testing.T
	r     *rig.Rig
	tag   byte
	reads int
}

func (s *rigServer) stamp(blk int64) []byte {
	buf := make([]byte, s.r.Driver.BlockSize().Bytes())
	for i := 0; i < len(buf); i += 2 {
		buf[i], buf[i+1] = s.tag, byte(blk)
	}
	return buf
}

func (s *rigServer) Read(_, _ int, blk int64, done driver.DoneFunc) {
	s.r.Driver.ReadBlock(0, blk, func(data []byte, err error) {
		if err == nil && !bytes.Equal(data, s.stamp(blk)) {
			s.t.Errorf("engine %#x: block %d read back as %#x %#x…", s.tag, blk, data[0], data[1])
		}
		s.reads++
		done(data, err)
	})
}

func (s *rigServer) Write(_, _ int, blk int64, done driver.DoneFunc) {
	s.r.Driver.WriteBlock(0, blk, s.stamp(blk), done)
}

// The read-buffer pool is the one piece of mutable state engines share
// (every other layer lives on its engine's goroutine). Two engines on
// two goroutines read and recycle through it at once, as two harness
// jobs do under -jobs 2; run with -race.
func TestTenantsRecycleAcrossEngines(t *testing.T) {
	const blocks = 64
	var wg sync.WaitGroup
	for _, tag := range []byte{0xA5, 0x3C} {
		tag := tag
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := rig.New(rig.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			srv := &rigServer{t: t, r: r, tag: tag}
			for blk := int64(0); blk < blocks; blk++ {
				srv.Write(0, 0, blk, func(_ []byte, err error) {
					if err != nil {
						t.Error(err)
					}
				})
			}
			r.Eng.Run()
			w, err := NewTenants(r.Eng, srv, blocks, TenantConfig{Tenants: 8, RatePerSec: 40, Seed: uint64(tag)})
			if err != nil {
				t.Error(err)
				return
			}
			w.Run(r.Eng.Now(), r.Eng.Now()+60_000, func(error) {})
			r.Eng.Run()
			if w.Failed() != 0 || srv.reads < 1000 {
				t.Errorf("engine %#x: %d reads, %d failed", tag, srv.reads, w.Failed())
			}
		}()
	}
	wg.Wait()
}
