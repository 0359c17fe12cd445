package server

import "math/bits"

// TokenBucket is a simulated-time token bucket: tokens accrue at its
// class's TokenRate per simulated second up to the class's TokenBurst,
// and each admitted request spends one. Refill is computed lazily from
// the simulated clock the caller passes in, so a bucket costs nothing
// between requests and two runs presenting the same request times make
// identical decisions. The server keeps one per tenant that has sent a
// request, in a bucketTable: a bucket holds its level, its clock and
// its class index, 24 bytes, and the caller passes the class's contract
// in, so there is no copy of a contract and no timer.
type TokenBucket struct {
	tokens float64
	last   float64
	class  int32 // index of the class whose contract refills the bucket
}

// NewTokenBucket returns a full bucket of class, whose contract is c,
// with its clock at now.
func NewTokenBucket(class int, c *ClassConfig, now float64) TokenBucket {
	return TokenBucket{tokens: c.TokenBurst, last: now, class: int32(class)}
}

// refill accrues tokens under contract c up to simulated time now
// (milliseconds).
func (b *TokenBucket) refill(now float64, c *ClassConfig) {
	if now > b.last {
		b.tokens += float64((now - b.last) / 1000 * c.TokenRate)
		if b.tokens > c.TokenBurst {
			b.tokens = c.TokenBurst
		}
		b.last = now
	}
}

// Take spends one token at simulated time now under b's class contract
// c, reporting whether one was available.
func (b *TokenBucket) Take(now float64, c *ClassConfig) bool {
	b.refill(now, c)
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// bucketTable holds the token bucket of every tenant that has sent a
// request, so its size follows the senders, not the population, and an
// empty table allocates nothing. It is an open-addressing hash table
// with linear probing, at most 7/8 full, whose slots hold the buckets
// inline: a tenant costs no allocation of its own, and finding a stored
// tenant's bucket is one multiply and usually one cache line. A Go map
// of bucket values needs two hashed lookups per request (read, then
// store the bucket back) and ran tenant-scale's command line about 7 %
// slower than a dense per-tenant table; this table runs it as fast.
// Only grow reads the slots in table order, to rehash them, so the
// layout never reaches a decision.
type bucketTable struct {
	slots []bucketSlot // a power of two long, or empty
	shift uint         // 64 - log2(len(slots)): the hash's top bits index a slot
	n     int          // occupied slots
}

type bucketSlot struct {
	key int // tenant + 1; 0 marks a free slot
	b   TokenBucket
}

// get returns tenant's bucket, and whether the tenant had one: a new
// tenant gets a zero bucket in a slot of its own, for the caller to
// fill. The pointer is valid until the next call.
func (t *bucketTable) get(tenant int) (b *TokenBucket, seen bool) {
	if 8*(t.n+1) > 7*len(t.slots) {
		t.grow()
	}
	key := tenant + 1
	for i := t.home(key); ; i = (i + 1) & (len(t.slots) - 1) {
		s := &t.slots[i]
		switch s.key {
		case key:
			return &s.b, true
		case 0:
			s.key = key
			t.n++
			return &s.b, false
		}
	}
}

// home is key's first slot, by Fibonacci hashing: consecutive tenants,
// the hottest ones under a Zipf popularity, spread over the table.
func (t *bucketTable) home(key int) int {
	return int(uint64(key) * 0x9E3779B97F4A7C15 >> t.shift)
}

// grow doubles the table, from 64 slots, and rehashes every stored
// bucket into it.
func (t *bucketTable) grow() {
	old := t.slots
	t.slots = make([]bucketSlot, max(64, 2*len(old)))
	t.shift = uint(bits.LeadingZeros64(uint64(len(t.slots)))) + 1
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].key != 0 {
			i = (i + 1) & (len(t.slots) - 1)
		}
		t.slots[i] = s
	}
}
