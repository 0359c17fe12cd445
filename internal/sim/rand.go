package sim

import (
	"math"
	"sort"
)

// Rand is a deterministic pseudo-random number generator (xorshift64*).
// Simulations must draw all randomness from a seeded Rand so that every
// experiment is exactly reproducible.
type Rand struct {
	state uint64
	// cached second normal variate from Box-Muller
	haveGauss bool
	gauss     float64
}

// NewRand returns a generator seeded with seed (0 is remapped to a fixed
// non-zero value, since xorshift requires non-zero state).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform variate in [0, 1). The outer conversion
// keeps an inlined caller from fusing the scaling into its own addition.
func (r *Rand) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Exp returns an exponential variate with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Norm returns a normal variate with the given mean and standard
// deviation (Box-Muller).
func (r *Rand) Norm(mean, stddev float64) float64 {
	if r.haveGauss {
		r.haveGauss = false
		return mean + float64(stddev*r.gauss)
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.haveGauss = true
	return mean + float64(stddev*u*f)
}

// LogNormal returns a log-normal variate whose underlying normal has the
// given mu and sigma.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Split returns a new independent generator derived from this one, for
// giving each simulation component its own stream.
func (r *Rand) Split() *Rand {
	return NewRand(r.Uint64() ^ 0xA5A5A5A5DEADBEEF)
}

// Zipf samples ranks 1..N with probability proportional to 1/rank^theta.
// theta > 1 gives the heavy skew typical of block reference streams; the
// paper's system file system needs roughly "top 100 blocks absorb 90% of
// requests" (Figure 5), which corresponds to theta well above 1.
type Zipf struct {
	cum []float64 // cumulative probabilities, cum[i] for rank i+1
}

// NewZipf precomputes a Zipf(θ) distribution over ranks 1..n.
func NewZipf(n int, theta float64) *Zipf {
	if n <= 0 {
		panic("sim: Zipf with non-positive n")
	}
	cum := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), theta)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[n-1] = 1 // guard against rounding
	return &Zipf{cum: cum}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cum) }

// Rank draws a rank in [0, N) (0 is the most popular).
func (z *Zipf) Rank(r *Rand) int {
	u := r.Float64()
	return sort.SearchFloat64s(z.cum, u)
}

// Prob returns the probability of rank i (0-based).
func (z *Zipf) Prob(i int) float64 {
	if i == 0 {
		return z.cum[0]
	}
	return z.cum[i] - z.cum[i-1]
}
