package server

import (
	"testing"
	"unsafe"

	"repro/internal/sim"
)

func TestTokenBucketStartsFullAndRefills(t *testing.T) {
	c := &ClassConfig{TokenRate: 10, TokenBurst: 5} // 10 tokens/s, burst 5
	b := NewTokenBucket(0, c, 0)
	for i := 0; i < 5; i++ {
		if !b.Take(0, c) {
			t.Fatalf("take %d from a full burst-5 bucket failed", i)
		}
	}
	if b.Take(0, c) {
		t.Fatal("take from an empty bucket succeeded")
	}
	// 10/s refills one token per 100 ms; at 99 ms there is still none.
	if b.Take(99, c) {
		t.Fatal("token available before refill interval elapsed")
	}
	if !b.Take(100, c) {
		t.Fatal("no token 100 ms after draining a 10/s bucket")
	}
	// A long idle stretch caps at the burst, not the elapsed time.
	if b.refill(1e9, c); b.tokens != 5 {
		t.Fatalf("level after long idle = %v, want burst 5", b.tokens)
	}
}

func TestTokenBucketClockNeverRunsBackwards(t *testing.T) {
	c := &ClassConfig{TokenRate: 1000, TokenBurst: 1}
	b := NewTokenBucket(0, c, 0)
	if !b.Take(10, c) {
		t.Fatal("take at t=10 failed")
	}
	// An earlier timestamp (out-of-order observation) must not mint
	// tokens or move the clock backwards.
	if b.Take(5, c) {
		t.Fatal("earlier timestamp minted a token")
	}
	if !b.Take(11, c) {
		t.Fatal("refill after 1 ms at 1000/s failed")
	}
}

// TestTokenBucketDeterminism replays a random admission schedule twice
// and requires identical decisions — the property the server's
// byte-identical output contract rests on.
func TestTokenBucketDeterminism(t *testing.T) {
	const seed = 0xB0C4
	t.Logf("seed=%#x", seed)
	run := func() []bool {
		rnd := sim.NewRand(seed)
		c := &ClassConfig{TokenRate: 4, TokenBurst: 8}
		b := NewTokenBucket(0, c, 0)
		var out []bool
		now := 0.0
		for i := 0; i < 5000; i++ {
			now += rnd.Exp(50)
			out = append(out, b.Take(now, c))
		}
		return out
	}
	a, c := run(), run()
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("decision %d differs between identical replays", i)
		}
	}
	// Long-run admission cannot exceed rate*time + burst.
	granted := 0
	for _, ok := range a {
		if ok {
			granted++
		}
	}
	if max := 4*(5000*50.0/1000) + 8; float64(granted) > max {
		t.Errorf("granted %d tokens, rate bound allows at most %.0f", granted, max)
	}
}

// TestTokenBucketSize: the server keeps one bucket per sending tenant,
// inline in a bucketTable slot, so the bucket carries its class index,
// not a copy of the class's contract, and a sender costs one 32-byte
// slot with its key.
func TestTokenBucketSize(t *testing.T) {
	if n := unsafe.Sizeof(TokenBucket{}); n != 24 {
		t.Errorf("TokenBucket is %d bytes, want 24", n)
	}
}

// TestBucketTableMatchesMap drives the bucket table with a seeded stream
// of tenants, half of them from a small hot set, through many doublings,
// and checks every answer against a Go map: a tenant is new exactly on
// its first lookup, and its bucket is the one stored then.
func TestBucketTableMatchesMap(t *testing.T) {
	const seed = 0x7AB1E
	t.Logf("seed=%#x", seed)
	rnd := sim.NewRand(seed)
	var tab bucketTable
	ref := map[int]float64{}
	for i := 0; i < 200_000; i++ {
		tenant := rnd.Intn(1_000_000)
		if rnd.Bool(0.5) {
			tenant = rnd.Intn(64)
		}
		b, seen := tab.get(tenant)
		want, stored := ref[tenant]
		if seen != stored {
			t.Fatalf("op %d, tenant %d: seen = %v, want %v", i, tenant, seen, stored)
		}
		if !seen {
			if *b != (TokenBucket{}) {
				t.Fatalf("op %d: new tenant %d got a used bucket %+v", i, tenant, *b)
			}
			want = float64(i)
			ref[tenant] = want
			b.last = want
		}
		if b.last != want {
			t.Fatalf("op %d, tenant %d: bucket clock %v, want %v", i, tenant, b.last, want)
		}
	}
	if tab.n != len(ref) || 8*tab.n > 7*len(tab.slots) {
		t.Errorf("%d tenants stored in %d slots; want %d, at most 7/8 full", tab.n, len(tab.slots), len(ref))
	}
}
