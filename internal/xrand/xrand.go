// Package xrand provides a small, deterministic, splittable pseudo-random
// number generator used by every randomized algorithm in this repository.
//
// Reproducibility is a hard requirement for the experiment harness: every
// algorithm takes an explicit seed, and every per-vertex random stream is
// derived deterministically from (seed, vertex id, stream label). This makes
// distributed algorithms replayable and lets the tests cross-check the
// message-passing and oracle implementations of the same algorithm bit for
// bit.
//
// The core generator is SplitMix64 (Steele, Lea, Vigna), which has a 64-bit
// state, passes BigCrush when used as intended, and — crucially — supports
// cheap splitting: mixing extra words into the state yields statistically
// independent streams.
package xrand

import "math"

// golden is the 64-bit golden ratio constant used by SplitMix64.
const golden = 0x9e3779b97f4a7c15

// RNG is a deterministic SplitMix64 pseudo-random generator.
// The zero value is a valid generator seeded with 0.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// mix64 is the SplitMix64 output function.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += golden
	return mix64(r.state)
}

// Split returns a new generator whose stream is statistically independent of
// the receiver's, derived from the receiver's state and the given labels.
// Splitting does not advance the receiver, so the same (seed, labels) pair
// always yields the same child stream; this is what makes per-vertex streams
// replayable.
func (r *RNG) Split(labels ...uint64) *RNG {
	s := mix64(r.state + golden)
	for _, l := range labels {
		s = mix64(s ^ mix64(l+golden))
	}
	return &RNG{state: s}
}

// Stream returns the canonical per-(vertex, label) generator for a given
// top-level seed: New(seed).Split(vertex+1, label+1), by value. It is a
// convenience for algorithms that hand each vertex its own independent
// stream; returning a value keeps a per-vertex draw off the heap.
func Stream(seed uint64, vertex int, label uint64) RNG {
	s := mix64(seed + golden)
	s = mix64(s ^ mix64(uint64(vertex)+1+golden))
	s = mix64(s ^ mix64(label+1+golden))
	return RNG{state: s}
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	// Use the top 53 bits for a uniformly distributed double.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be positive; if n <= 0 the
// result is 0, which keeps callers panic-free per the style guide (don't
// panic in library code).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	// Lemire's nearly-divisionless bounded generation would be faster, but
	// modulo of a 64-bit value by small n has negligible bias (< 2^-50 for
	// n < 2^13) and keeps the code obvious.
	return int(r.Uint64() % uint64(n))
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with rate lambda
// (mean 1/lambda). For lambda <= 0 it returns +Inf, matching the convention
// that a rate-0 exponential never fires.
func (r *RNG) Exp(lambda float64) float64 {
	if lambda <= 0 {
		return math.Inf(1)
	}
	u := r.Float64()
	// 1-u is in (0,1]; log is finite.
	return -math.Log(1-u) / lambda
}

// Geometric returns a geometric random variable with success probability p,
// supported on {1, 2, 3, ...} with Pr[X = k] = (1-p)^(k-1) p, matching the
// convention of the paper's Lemma A.2 (E[X] = 1/p). For p >= 1 it returns 1;
// for p <= 0 it returns a very large value (the distribution is degenerate).
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 1
	}
	if p <= 0 {
		return math.MaxInt32
	}
	// Inversion: X = ceil(log(1-U) / log(1-p)).
	u := r.Float64()
	x := math.Ceil(math.Log1p(-u) / math.Log1p(-p))
	if x < 1 {
		return 1
	}
	if x > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(x)
}

// Shuffle permutes the elements of the slice in place.
func Shuffle[T any](r *RNG, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}
