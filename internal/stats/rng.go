// Package stats provides the numerical foundations shared by every other
// package in this repository: a fast, seedable, forkable random number
// generator, the probability distributions used to synthesize network
// throughput traces, descriptive statistics, empirical CDFs, and the
// information-theoretic distances (KL divergence) used by the ensemble
// uncertainty signals.
//
// Everything in this package is deterministic given a seed, which is what
// makes the experiment harness and the test suite reproducible.
package stats

import "math"

// RNG is a xoshiro256** pseudo-random number generator seeded through
// splitmix64. It is NOT safe for concurrent use; call Fork to derive
// independent streams for concurrent workers.
type RNG struct {
	s [4]uint64
}

// Mix64 is the SplitMix64 generator's output function at state x — a
// cheap, well-distributed bijection of 64-bit words. The canary router
// hashes session indices with it and the fault schedules derive every
// decision from it, statelessly.
//
//osap:hotpath
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// splitmix64 advances the given state and returns the next output. It is
// used to expand a single 64-bit seed into the 256-bit xoshiro state and
// to derive fork seeds.
func splitmix64(state *uint64) uint64 {
	z := Mix64(*state)
	*state += 0x9e3779b97f4a7c15
	return z
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Fork derives a new generator whose stream is independent of (and
// deterministically determined by) the parent's current state. Use one
// fork per goroutine.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling would be overkill
	// here; modulo bias is negligible for the small n used in this repo,
	// but we reject to stay exactly uniform.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
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

// NormFloat64 returns a standard-normal variate using the Marsaglia polar
// method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1).
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}
