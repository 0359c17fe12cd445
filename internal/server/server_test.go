package server

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/driver"
	"repro/internal/geom"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// fakeDev is a scripted backend: every request completes after
// serviceMS, failing while failUntil operations remain. It runs on the
// same engine as the server, like a real driver would.
type fakeDev struct {
	eng       *sim.Engine
	serviceMS float64
	failUntil int    // fail the first failUntil operations
	ops       int    // operations issued
	reads     int64  // read attempts
	writes    int64  // write attempts
	order     []byte // arrival order at the backend: 'r' / 'w'
}

var errBackend = errors.New("fakedev: injected failure")

func (d *fakeDev) complete(done driver.DoneFunc, data []byte) {
	d.ops++
	fail := d.ops <= d.failUntil
	d.eng.After(d.serviceMS, func() {
		if fail {
			done(nil, errBackend)
			return
		}
		done(data, nil)
	})
}

func (d *fakeDev) ReadBlock(part int, blk int64, done driver.DoneFunc) {
	d.reads++
	d.order = append(d.order, 'r')
	d.complete(done, make([]byte, d.BlockSize().Bytes()))
}

func (d *fakeDev) WriteBlock(part int, blk int64, data []byte, done driver.DoneFunc) {
	d.writes++
	d.order = append(d.order, 'w')
	d.complete(done, nil)
}

func (d *fakeDev) BlockSize() geom.BlockSize { return geom.Block8K }

// Label implements driver.BlockDevice; the server never consults it.
func (d *fakeDev) Label() *label.Label { return nil }

// newTestServer builds an engine, a fake device, and a server over it.
func newTestServer(t *testing.T, dev *fakeDev, cfg Config) (*sim.Engine, *fakeDev, *Server) {
	t.Helper()
	eng := sim.NewEngine()
	if dev == nil {
		dev = &fakeDev{serviceMS: 10}
	}
	dev.eng = eng
	srv, err := New(eng, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, dev, srv
}

func TestServerReadWriteRoundTrip(t *testing.T) {
	eng, dev, srv := newTestServer(t, nil, Config{Tenants: 2})
	var gotData []byte
	var gotErr error
	srv.Read(0, 0, 7, func(data []byte, err error) { gotData, gotErr = data, err })
	var wroteErr error
	srv.Write(1, 2, 9, func(_ []byte, err error) { wroteErr = err })
	eng.Run()
	if gotErr != nil || wroteErr != nil {
		t.Fatalf("read err = %v, write err = %v", gotErr, wroteErr)
	}
	if len(gotData) != geom.Block8K.Bytes() {
		t.Fatalf("read returned %d bytes, want %d", len(gotData), geom.Block8K.Bytes())
	}
	if dev.reads != 1 || dev.writes != 1 {
		t.Fatalf("backend saw %d reads, %d writes", dev.reads, dev.writes)
	}
	c := srv.Counters()
	if c.Submitted != 2 || c.Accepted != 2 || c.Completed != 2 || c.Failed != 0 {
		t.Errorf("counters: %+v", c)
	}
	// End-to-end latency = request link + service + response link; with
	// the default 0.2 ms propagation it must exceed the bare service
	// time, and the class histogram must have recorded it.
	st := srv.ClassStats()
	if st[0].Completed != 1 || st[0].P50 < dev.serviceMS {
		t.Errorf("class gold stats: %+v", st[0])
	}
	if srv.inflight != 0 || srv.qlen != 0 {
		t.Errorf("idle server holds inflight=%d queue=%d", srv.inflight, srv.qlen)
	}
}

func TestServerNetworkDelayOrdersArrival(t *testing.T) {
	// With serialization enabled, a write's request message (header +
	// 8K payload) takes longer to cross the link than a read's bare
	// header, so a read submitted second still reaches the backend
	// first.
	eng, dev, srv := newTestServer(t, &fakeDev{serviceMS: 0},
		Config{Tenants: 1, Net: LinkConfig{LatencyMS: 1, BandwidthMBps: 1}})
	srv.Write(0, 0, 1, func(_ []byte, err error) {})
	srv.Read(0, 0, 2, func(_ []byte, err error) {})
	eng.Run()
	if string(dev.order) != "rw" {
		t.Fatalf("backend arrival order = %q, want %q", dev.order, "rw")
	}
}

func TestServerThrottlesFloodingTenant(t *testing.T) {
	eng, _, srv := newTestServer(t, nil, Config{Tenants: 2})
	// Bronze allows burst 4 + a trickle of refill; 100 simultaneous
	// requests from one tenant must mostly throttle.
	var throttled, okCount int
	for i := 0; i < 100; i++ {
		srv.Read(1, 2, int64(i), func(_ []byte, err error) {
			switch {
			case errors.Is(err, ErrThrottled):
				throttled++
			case err == nil:
				okCount++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		})
	}
	eng.Run()
	if okCount != 4 || throttled != 96 {
		t.Fatalf("ok = %d, throttled = %d; want 4 and 96", okCount, throttled)
	}
	c := srv.Counters()
	if c.Throttled != 96 {
		t.Errorf("Counters.Throttled = %d", c.Throttled)
	}
	if st := srv.ClassStats()[2]; st.Throttled != 96 || st.Submitted != 100 {
		t.Errorf("bronze stats: %+v", st)
	}
}

// TestServerBucketsOnlyForSenders: building a server costs the same for
// a million tenants as for one, because a tenant's token bucket is
// stored only once it sends; a dense table would be 24 MB here.
func TestServerBucketsOnlyForSenders(t *testing.T) {
	eng := sim.NewEngine()
	dev := &fakeDev{eng: eng, serviceMS: 10}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv, err := New(eng, dev, Config{Tenants: 1_000_000})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("New with a million tenants allocated %d bytes, want under 64 KiB", got)
	}
	var okCount int
	for _, tenant := range []int{999_999, 0, 999_999} {
		srv.Read(tenant, 0, 1, func(_ []byte, err error) {
			if err == nil {
				okCount++
			}
		})
	}
	eng.Run()
	if okCount != 3 || srv.buckets.n != 2 {
		t.Errorf("ok = %d with %d buckets stored; want 3 requests answered from 2 buckets", okCount, srv.buckets.n)
	}
}

// TestServerLateTenantStartsFull: a tenant whose first request comes
// long after the server was built, and after another tenant drained
// its own bucket, still gets its class's full burst.
func TestServerLateTenantStartsFull(t *testing.T) {
	eng, _, srv := newTestServer(t, nil, Config{Tenants: 2})
	burst := int(DefaultClasses()[2].TokenBurst)
	results := map[int][]error{}
	flood := func(tenant, n int) {
		for i := 0; i < n; i++ {
			srv.Read(tenant, 2, int64(i), func(_ []byte, err error) {
				results[tenant] = append(results[tenant], err)
			})
		}
	}
	flood(0, 2*burst)
	eng.After(3600e3, func() { flood(1, burst+1) })
	eng.Run()
	var okCount, throttled int
	for _, err := range results[1] {
		switch {
		case err == nil:
			okCount++
		case errors.Is(err, ErrThrottled):
			throttled++
		}
	}
	if okCount != burst || throttled != 1 {
		t.Errorf("late tenant: ok = %d, throttled = %d; want its burst %d and 1", okCount, throttled, burst)
	}
}

// TestServerTenantKeepsFirstClass: a tenant's bucket keeps the contract
// of its first request's class; a later request that names another
// class refills and spends under the first class's rate and burst,
// while the throttle is counted against the class the request named.
func TestServerTenantKeepsFirstClass(t *testing.T) {
	eng, _, srv := newTestServer(t, nil, Config{Tenants: 1})
	bronze, gold := DefaultClasses()[2], DefaultClasses()[0]
	var okCount, throttled int
	srv.Read(0, 2, 0, func(_ []byte, err error) {})
	// Ten seconds later bronze has refilled to its burst of 4; gold
	// would allow 10 at once.
	const n = 10
	if n > int(gold.TokenBurst) {
		t.Fatalf("gold's burst %v would throttle too; the test needs a larger one", gold.TokenBurst)
	}
	eng.After(10e3, func() {
		for i := 0; i < n; i++ {
			srv.Read(0, 0, int64(i), func(_ []byte, err error) {
				switch {
				case err == nil:
					okCount++
				case errors.Is(err, ErrThrottled):
					throttled++
				}
			})
		}
	})
	eng.Run()
	if want := int(bronze.TokenBurst); okCount != want || throttled != n-want {
		t.Errorf("gold requests of a bronze tenant: ok = %d, throttled = %d; want %d and %d", okCount, throttled, want, n-want)
	}
	if st := srv.ClassStats(); st[0].Throttled != int64(n)-int64(bronze.TokenBurst) || st[2].Throttled != 0 {
		t.Errorf("throttles counted gold %d, bronze %d; want %d and 0", st[0].Throttled, st[2].Throttled, n-int(bronze.TokenBurst))
	}
}

func TestServerQoSOffDisablesThrottling(t *testing.T) {
	eng, _, srv := newTestServer(t, nil, Config{Tenants: 1, QoSOff: true, MaxInFlight: 128, QueueCap: 128})
	var failed int
	for i := 0; i < 100; i++ {
		srv.Read(0, 2, int64(i), func(_ []byte, err error) {
			if err != nil {
				failed++
			}
		})
	}
	eng.Run()
	if failed != 0 {
		t.Fatalf("%d requests failed with QoS off and ample admission room", failed)
	}
	if c := srv.Counters(); c.Throttled != 0 || c.Completed != 100 {
		t.Errorf("counters: %+v", c)
	}
}

func TestServerShedsBeyondQueueCap(t *testing.T) {
	eng, _, srv := newTestServer(t, &fakeDev{serviceMS: 1},
		Config{Tenants: 1, QoSOff: true, MaxInFlight: 1, QueueCap: 2})
	var overloaded, okCount int
	for i := 0; i < 10; i++ {
		srv.Read(0, 0, int64(i), func(_ []byte, err error) {
			switch {
			case errors.Is(err, ErrOverload):
				overloaded++
			case err == nil:
				okCount++
			}
		})
	}
	eng.Run()
	// 1 in flight + 2 queued admitted; 7 shed. All arrive before any
	// completion because service (1 ms) exceeds the link delay.
	if okCount != 3 || overloaded != 7 {
		t.Fatalf("ok = %d, overloaded = %d; want 3 and 7", okCount, overloaded)
	}
	if c := srv.Counters(); c.Overloaded != 7 || c.Accepted != 3 {
		t.Errorf("counters: %+v", c)
	}
}

func TestServerDeadlineMissAndQueueExpiry(t *testing.T) {
	// Service time far beyond the gold deadline: the in-flight request
	// completes late (DeadlineMiss), the queued one expires without a
	// second backend operation (Expired).
	classes := []ClassConfig{{Name: "gold", TokenRate: 8, TokenBurst: 16, DeadlineMS: 50}}
	eng, dev, srv := newTestServer(t, &fakeDev{serviceMS: 500},
		Config{Tenants: 1, Classes: classes, MaxInFlight: 1, QueueCap: 4})
	var errs []error
	for i := 0; i < 2; i++ {
		srv.Read(0, 0, int64(i), func(_ []byte, err error) { errs = append(errs, err) })
	}
	eng.Run()
	if len(errs) != 2 || !errors.Is(errs[0], ErrDeadline) || !errors.Is(errs[1], ErrDeadline) {
		t.Fatalf("errs = %v, want two ErrDeadline", errs)
	}
	c := srv.Counters()
	if c.DeadlineMiss != 1 || c.Expired != 1 || c.Completed != 0 || c.Failed != 0 {
		t.Errorf("counters: %+v", c)
	}
	if dev.reads != 1 {
		t.Errorf("backend saw %d reads; the expired request must not issue", dev.reads)
	}
}

func TestServerRetriesTransientBackendErrors(t *testing.T) {
	// Two failures then success: the request must succeed on the third
	// attempt, with backoff 2 + 4 ms accounted.
	eng, dev, srv := newTestServer(t, &fakeDev{serviceMS: 1, failUntil: 2}, Config{Tenants: 1})
	var gotErr error
	srv.Read(0, 0, 1, func(_ []byte, err error) { gotErr = err })
	eng.Run()
	if gotErr != nil {
		t.Fatalf("err = %v after retries", gotErr)
	}
	c := srv.Counters()
	if c.Retries != 2 || c.Completed != 1 || c.Failed != 0 {
		t.Errorf("counters: %+v", c)
	}
	if want := 2.0 + 4.0; c.BackoffMS != want {
		t.Errorf("BackoffMS = %v, want %v", c.BackoffMS, want)
	}
	if dev.reads != 3 {
		t.Errorf("backend saw %d attempts, want 3", dev.reads)
	}
}

func TestServerFailsAfterRetryBudget(t *testing.T) {
	eng, dev, srv := newTestServer(t, &fakeDev{serviceMS: 1, failUntil: 1 << 30}, Config{Tenants: 1})
	var gotErr error
	srv.Read(0, 0, 1, func(_ []byte, err error) { gotErr = err })
	eng.Run()
	if !errors.Is(gotErr, errBackend) {
		t.Fatalf("err = %v, want the backend error", gotErr)
	}
	c := srv.Counters()
	if c.Retries != 3 || c.Failed != 1 || c.Completed != 0 {
		t.Errorf("counters: %+v", c)
	}
	if dev.reads != 4 {
		t.Errorf("backend saw %d attempts, want 1 + 3 retries", dev.reads)
	}
}

func TestServerRetriesStopAtDeadline(t *testing.T) {
	// A 5 ms deadline leaves no room for the 2 ms first backoff after a
	// ~4.4 ms first attempt (two 0.2 ms link hops + 4 ms service): the
	// failure is final and only one backend attempt happens.
	classes := []ClassConfig{{Name: "gold", TokenRate: 8, TokenBurst: 16, DeadlineMS: 5}}
	eng, dev, srv := newTestServer(t, &fakeDev{serviceMS: 4, failUntil: 1 << 30},
		Config{Tenants: 1, Classes: classes})
	var gotErr error
	srv.Read(0, 0, 1, func(_ []byte, err error) { gotErr = err })
	eng.Run()
	if !errors.Is(gotErr, errBackend) {
		t.Fatalf("err = %v, want the backend error", gotErr)
	}
	if c := srv.Counters(); c.Retries != 0 {
		t.Errorf("retried past the deadline: %+v", c)
	}
	if dev.reads != 1 {
		t.Errorf("backend saw %d attempts, want 1", dev.reads)
	}
}

func TestServerBreakerTripsAndRecovers(t *testing.T) {
	// A backend whose first 30 operations fail: the breaker must trip,
	// shed arrivals while open, then recover through half-open probes
	// once the backend heals — and the healed traffic completes. The
	// budget is spent slowly once tripped (one probe per cooldown
	// cycle), so it must be small enough to exhaust mid-run.
	dev := &fakeDev{serviceMS: 1, failUntil: 30}
	eng, _, srv := newTestServer(t, dev, Config{
		Tenants: 1, QoSOff: true, MaxRetries: -1,
		Breaker: BreakerConfig{Window: 16, MinSamples: 8, ErrorRate: 0.5, CooldownMS: 50, HalfOpenProbes: 3},
	})
	var rejected, completed, failed int
	var tick func(i int)
	tick = func(i int) {
		if i >= 600 {
			return
		}
		srv.Read(0, 0, int64(i), func(_ []byte, err error) {
			switch {
			case errors.Is(err, ErrCircuitOpen):
				rejected++
			case err == nil:
				completed++
			default:
				failed++
			}
		})
		eng.After(5, func() { tick(i + 1) })
	}
	tick(0)
	eng.Run()
	bc := srv.Breaker().Counts()
	if bc.Opened == 0 || bc.HalfOpened == 0 || bc.Closed == 0 {
		t.Fatalf("breaker never cycled: %+v", bc)
	}
	if rejected == 0 {
		t.Error("no arrivals were shed while open")
	}
	if completed == 0 {
		t.Error("no traffic completed after recovery")
	}
	// ErrCircuitOpen is an overload by taxonomy.
	if !errors.Is(ErrCircuitOpen, ErrOverload) {
		t.Error("ErrCircuitOpen does not unwrap to ErrOverload")
	}
	c := srv.Counters()
	if c.BreakerRejects != int64(rejected) {
		t.Errorf("BreakerRejects = %d, clients saw %d", c.BreakerRejects, rejected)
	}
	if got := c.Completed + c.Failed + c.DeadlineMiss + c.Expired; got != c.Accepted {
		t.Errorf("accounting: accepted %d, answered %d", c.Accepted, got)
	}
}

func TestServerBindMetrics(t *testing.T) {
	eng, _, srv := newTestServer(t, &fakeDev{serviceMS: 1, failUntil: 1}, Config{Tenants: 2})
	reg := metrics.NewRegistry()
	srv.BindMetrics(reg)
	for i := 0; i < 20; i++ {
		srv.Read(i%2, i%3, int64(i), func(_ []byte, _ error) {})
	}
	eng.Run()
	snap := reg.Snapshot()
	got := map[string]*metrics.MetricSnap{}
	for i := range snap.Metrics {
		got[snap.Metrics[i].Name] = &snap.Metrics[i]
	}
	c := srv.Counters()
	checks := map[string]float64{
		`server_submitted`:                     float64(c.Submitted),
		`server_accepted`:                      float64(c.Accepted),
		`server_throttled`:                     float64(c.Throttled),
		`server_overloaded`:                    float64(c.Overloaded),
		`server_breaker_rejects`:               float64(c.BreakerRejects),
		`server_expired`:                       float64(c.Expired),
		`server_deadline_miss`:                 float64(c.DeadlineMiss),
		`server_retries`:                       float64(c.Retries),
		`server_backoff_ms`:                    c.BackoffMS,
		`server_completed`:                     float64(c.Completed),
		`server_failed`:                        float64(c.Failed),
		`server_breaker_opened`:                0,
		`server_breaker_half_opened`:           0,
		`server_breaker_closed`:                0,
		`server_breaker_state`:                 0,
		`server_accept_queue_len`:              0,
		`server_inflight`:                      0,
		`server_class_submitted{class="gold"}`: float64(srv.ClassStats()[0].Submitted),
	}
	if c.Retries == 0 || c.BackoffMS == 0 {
		t.Errorf("scenario exercised no retries: %+v", c)
	}
	for name, want := range checks {
		m := got[name]
		if m == nil {
			t.Errorf("metric %s missing from snapshot", name)
			continue
		}
		if m.Value != want {
			t.Errorf("%s = %v, want %v", name, m.Value, want)
		}
	}
	h := got[`server_req_ms{class="gold"}`]
	if h == nil || h.Hist == nil || h.Hist.Count != srv.ClassStats()[0].Completed {
		t.Errorf("per-class latency histogram missing or miscounted: %+v", h)
	}
}

func TestServerDeterminism(t *testing.T) {
	const seed = 0x5E1D
	t.Logf("seed=%#x", seed)
	run := func() (Counters, []ClassStat, BreakerCounts) {
		eng := sim.NewEngine()
		dev := &fakeDev{eng: eng, serviceMS: 3, failUntil: 40}
		srv, err := New(eng, dev, Config{
			Tenants: 50, MaxInFlight: 4, QueueCap: 8,
			Breaker: BreakerConfig{Window: 16, MinSamples: 8, ErrorRate: 0.5, CooldownMS: 40, HalfOpenProbes: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		rnd := sim.NewRand(seed)
		var tick func(i int)
		tick = func(i int) {
			if i >= 3000 {
				return
			}
			tenant := rnd.Intn(50)
			if rnd.Bool(0.7) {
				srv.Read(tenant, tenant%3, int64(i), func(_ []byte, _ error) {})
			} else {
				srv.Write(tenant, tenant%3, int64(i), func(_ []byte, _ error) {})
			}
			eng.After(rnd.Exp(2), func() { tick(i + 1) })
		}
		tick(0)
		eng.Run()
		return srv.Counters(), srv.ClassStats(), srv.Breaker().Counts()
	}
	c1, s1, b1 := run()
	c2, s2, b2 := run()
	if c1 != c2 {
		t.Errorf("counters differ between identical replays:\n%+v\n%+v", c1, c2)
	}
	if b1 != b2 {
		t.Errorf("breaker counts differ: %+v vs %+v", b1, b2)
	}
	if fmt.Sprint(s1) != fmt.Sprint(s2) {
		t.Errorf("class stats differ:\n%v\n%v", s1, s2)
	}
	if c1.Throttled == 0 || c1.Retries == 0 {
		t.Errorf("scenario too tame to pin determinism: %+v", c1)
	}
}

func TestServerConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	dev := &fakeDev{eng: eng, serviceMS: 1}
	bad := []Config{
		{Classes: []ClassConfig{{Name: "", TokenRate: 1, TokenBurst: 1, DeadlineMS: 1}}},
		{Classes: []ClassConfig{{Name: "x", TokenRate: 0, TokenBurst: 1, DeadlineMS: 1}}},
		{Classes: []ClassConfig{{Name: "x", TokenRate: 1, TokenBurst: 0.5, DeadlineMS: 1}}},
		{Classes: []ClassConfig{{Name: "x", TokenRate: 1, TokenBurst: 1, DeadlineMS: 0}}},
	}
	for i, cfg := range bad {
		if _, err := New(eng, dev, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(eng, dev, Config{Classes: []ClassConfig{}}); err != nil {
		// Empty (non-nil) slice means "no classes": also invalid.
		t.Log(err)
	} else {
		t.Error("empty class table accepted")
	}
}

func TestServerPanicsOnBadIndices(t *testing.T) {
	eng, _, srv := newTestServer(t, nil, Config{Tenants: 1})
	_ = eng
	for _, fn := range []func(){
		func() { srv.Read(-1, 0, 0, nil) },
		func() { srv.Read(1, 0, 0, nil) },
		func() { srv.Read(0, -1, 0, nil) },
		func() { srv.Read(0, 3, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range index did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestLinkConfigDelay(t *testing.T) {
	l := LinkConfig{LatencyMS: 1, BandwidthMBps: 8}.withDefaults()
	// 8 MB/s = 8000 bytes/ms: 16000 bytes serialize in 2 ms.
	if got := l.DelayMS(16000); got != 3 {
		t.Errorf("DelayMS(16000) = %v, want 3", got)
	}
	unlimited := LinkConfig{LatencyMS: 1, BandwidthMBps: -1}
	if got := unlimited.DelayMS(1 << 30); got != 1 {
		t.Errorf("negative bandwidth should disable serialization, got %v", got)
	}
	def := LinkConfig{}.withDefaults()
	if def.LatencyMS != 0.2 || def.BandwidthMBps != 100 {
		t.Errorf("defaults = %+v", def)
	}
}
