package server

// TokenBucket is a simulated-time token bucket: tokens accrue at its
// class's TokenRate per simulated second up to the class's TokenBurst,
// and each admitted request spends one. Refill is computed lazily from
// the simulated clock the caller passes in, so a bucket costs nothing
// between requests and two runs presenting the same request times make
// identical decisions. The server keeps one per tenant: a bucket holds
// its level, its clock and its class index, 24 bytes, and the caller
// passes the class's contract in, so a million tenants' buckets are
// 24 MB with no copy of a contract and no timers.
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

// Tokens returns the level at simulated time now under contract c, for
// tests and gauges.
func (b *TokenBucket) Tokens(now float64, c *ClassConfig) float64 {
	b.refill(now, c)
	return b.tokens
}
