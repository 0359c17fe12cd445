package server

// TokenBucket is a simulated-time token bucket: tokens accrue at Rate
// per simulated second up to Burst, and each admitted request spends
// one. Refill is computed lazily from the simulated clock the caller
// passes in, so a bucket costs nothing between requests and two runs
// presenting the same request times make identical decisions. The
// server keeps one per tenant — the slice of buckets for a million
// tenants is a few dozen megabytes and no timers.
type TokenBucket struct {
	// Rate is the refill rate in tokens per simulated second; Burst is
	// the bucket capacity.
	Rate  float64
	Burst float64

	tokens float64
	last   float64
}

// NewTokenBucket returns a full bucket whose clock starts at now.
func NewTokenBucket(rate, burst, now float64) TokenBucket {
	return TokenBucket{Rate: rate, Burst: burst, tokens: burst, last: now}
}

// refill accrues tokens up to simulated time now (milliseconds).
func (b *TokenBucket) refill(now float64) {
	if now > b.last {
		b.tokens += float64((now - b.last) / 1000 * b.Rate)
		if b.tokens > b.Burst {
			b.tokens = b.Burst
		}
		b.last = now
	}
}

// Take spends one token at simulated time now, reporting whether one
// was available.
func (b *TokenBucket) Take(now float64) bool {
	b.refill(now)
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Tokens returns the level at simulated time now, for tests and gauges.
func (b *TokenBucket) Tokens(now float64) float64 {
	b.refill(now)
	return b.tokens
}
