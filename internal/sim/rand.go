package sim

import (
	"math"
	"math/bits"
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
	return float64(unit(r.Uint64() >> 11))
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
//
// A draw costs O(1) whatever N is. Rank turns one Uint64 into the 53-bit
// k behind Float64's u = k/2^53 and looks k's top bits up in a guide
// table of 2^b ≥ N cells (Chen and Asau's indexed search). Cell j holds
// the smallest rank whose cumulative probability reaches j/2^b, the
// least u the cell can hold, so it is a lower bound on the rank of every
// u in the cell, and cell j+1's entry is an upper bound. An upward scan
// of the cumulative table between the two returns exactly the rank a
// binary search for u would. With at least as many cells as ranks the
// scan averages under one step; a cell that holds many ranks (the far
// tail of a steep θ) is bisected down to a short scan instead.
type Zipf struct {
	cum   []float64 // cumulative probabilities, cum[i] for rank i+1
	guide []int32   // guide[j] = first i with cum[i] >= j/2^b; guide[2^b] = N-1
	shift uint      // 53 - b: k>>shift is k's cell
}

// zipfScanMax is the widest rank range Rank scans linearly; a wider one
// is bisected down to it first.
const zipfScanMax = 8

// NewZipf precomputes a Zipf(θ) distribution over ranks 1..n, and its
// guide table in O(n).
func NewZipf(n int, theta float64) *Zipf {
	if n <= 0 || n > math.MaxInt32 {
		panic("sim: Zipf needs 1 <= n <= MaxInt32")
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
	b := bits.Len(uint(n - 1))
	z := &Zipf{cum: cum, guide: make([]int32, 1<<b+1), shift: uint(53 - b)}
	i := 0
	for j := range 1 << b {
		// cum[n-1] = 1 exceeds every cell start, so i stays below n.
		for cum[i] < unit(uint64(j)<<z.shift) {
			i++
		}
		z.guide[j] = int32(i)
	}
	z.guide[1<<b] = int32(n - 1)
	return z
}

// unit maps a 53-bit k to [0, 1) exactly as Float64 does.
func unit(k uint64) float64 { return float64(k) / (1 << 53) }

// Rank draws a rank in [0, n) for NewZipf's n (0 is the most
// popular). It consumes one Uint64 and returns sort.SearchFloat64s(cum,
// u) for the u that Float64 would have drawn.
func (z *Zipf) Rank(r *Rand) int { return z.rank(r.Uint64() >> 11) }

// rank returns the rank of the 53-bit draw k: the first i with
// cum[i] >= k/2^53, which lies between the guide entries of k's cell
// and of the next cell.
func (z *Zipf) rank(k uint64) int {
	u := unit(k)
	c := k >> z.shift
	i, j := int(z.guide[c]), int(z.guide[c+1])
	for j-i > zipfScanMax {
		h := int(uint(i+j) >> 1)
		if z.cum[h] < u {
			i = h + 1
		} else {
			j = h
		}
	}
	for z.cum[i] < u {
		i++
	}
	return i
}
