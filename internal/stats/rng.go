// Package stats provides the statistical substrate for the advertiser-fraud
// simulator and measurement library: a deterministic, forkable random number
// generator, heavy-tailed distribution samplers, empirical CDFs, quantiles,
// weighted sampling without replacement, and the matched-subset selection
// machinery described in §3.3 of the paper.
//
// All randomness in the repository flows through RNG so that a simulation is
// fully reproducible from a single seed. RNG is not safe for concurrent use;
// concurrent components each Fork their own stream.
package stats

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic random number generator
// (xoshiro256**), seeded via splitmix64 so that any uint64 — including 0 —
// is a valid seed. The zero value is not useful; construct with NewRNG.
type RNG struct {
	s [4]uint64
}

// RNGState is the exported form of an RNG's internal state, used by the
// checkpoint layer to serialize and later restore a stream mid-sequence.
type RNGState [4]uint64

// State returns the generator's current state. Restoring it with
// SetState resumes the stream at exactly the same point.
func (r *RNG) State() RNGState { return RNGState(r.s) }

// SetState overwrites the generator's state with one previously captured
// by State.
func (r *RNG) SetState(st RNGState) { r.s = [4]uint64(st) }

// NewRNG returns a generator deterministically derived from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 expansion of the seed into the 256-bit state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Fork derives an independent child generator. The child's stream is a pure
// function of the parent's state at the time of the call, so forking in a
// fixed order preserves determinism while decoupling component streams.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// ForkNamed derives a child generator whose stream depends on both the
// parent state and a label, so that adding a new named consumer does not
// perturb the streams of existing ones.
func (r *RNG) ForkNamed(name string) *RNG {
	return NewRNG(r.peek() ^ FNV1a(FNVOffset, name))
}

// FNV-1a 64-bit parameters: a hash starts at FNVOffset and folds each
// byte b as h = (h ^ b) * FNVPrime.
const (
	FNVOffset uint64 = 14695981039346656037
	FNVPrime  uint64 = 1099511628211
)

// FNV1a folds the bytes of s into the FNV-1a hash h: FNV1a(FNVOffset, s)
// is the hash of s, and FNV1a(FNV1a(FNVOffset, a), b) that of a+b.
func FNV1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= FNVPrime
	}
	return h
}

// peek mixes the current state without advancing it.
func (r *RNG) peek() uint64 {
	return r.s[0] ^ r.s[1] ^ r.s[2] ^ r.s[3]
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with zero n")
	}
	for {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= -n%n {
			return hi
		}
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// NormFloat64 returns a standard normal deviate via the Marsaglia polar
// method (allocation-free, no cached spare to keep Fork semantics simple).
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

// ExpFloat64 returns an exponential deviate with rate 1 (mean 1).
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
