// Package xrand provides a small, deterministic pseudo-random number
// generator for simulations.
//
// Reproducibility is a hard requirement for the experiment harness: every
// figure in the paper must regenerate the same series on every run so that
// tests can assert on shapes. math/rand would work, but its global state and
// historical Seed semantics make accidental nondeterminism too easy; this
// package exposes only explicitly-seeded generators. The core generator is
// xorshift64* seeded through splitmix64, which is statistically more than
// adequate for workload generation (we are not doing cryptography or
// high-dimensional Monte Carlo).
package xrand

import "math"

// Rand is a deterministic PRNG. The zero value is not valid; use New.
type Rand struct {
	state uint64
}

// New returns a generator seeded from seed. Any seed, including zero, yields
// a usable, full-period generator because the seed is first diffused through
// splitmix64.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to the stream identified by seed.
func (r *Rand) Seed(seed uint64) {
	// splitmix64 step to diffuse the seed; guarantees non-zero state.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	r.state = z
}

// Uint64 returns the next 64 random bits (xorshift64*).
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed value with mean 1, via
// inverse-transform sampling. Multiply by the desired mean.
func (r *Rand) ExpFloat64() float64 {
	u := r.Float64()
	// Guard against log(0); Float64 can return exactly 0.
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -math.Log(u)
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
