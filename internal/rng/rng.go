// Package rng provides deterministic, splittable random-number streams
// for reproducible Monte-Carlo experiments.
//
// Every experiment in the library takes an explicit seed; parallel workers
// derive independent sub-streams with Split, so results do not depend on
// scheduling order or worker count. Split is a pure function of (seed, n)
// — no shared state — which is the root of the repository-wide
// determinism contract (see ARCHITECTURE.md): the paper's BER curves
// (Fig. 10), NoC simulations (Fig. 8) and every design-space sweep
// reproduce byte-identically on one goroutine, many, or a distributed
// worker fleet.
package rng

import (
	"math"
	"math/rand"
)

// Stream is a deterministic random source with Gaussian and discrete
// helpers. It is not safe for concurrent use; derive one Stream per
// goroutine with Split.
type Stream struct {
	r *rand.Rand
	// spare caches the second Box-Muller deviate.
	spare    float64
	hasSpare bool
	seed     uint64
}

// New returns a Stream seeded deterministically from seed.
//
// The underlying generator is materialised lazily on the first draw:
// seeding math/rand's additive generator costs microseconds, and most
// streams in a sweep are pure split roots — New(seed).Split(i) derives
// children from the seed value alone — so eager seeding would pay that
// cost once per design point without ever drawing a number. The draw
// sequence of every stream is identical to eager seeding.
func New(seed uint64) *Stream {
	return &Stream{seed: seed}
}

// src returns the stream's generator, seeding it on first use.
func (s *Stream) src() *rand.Rand {
	if s.r == nil {
		s.r = rand.New(rand.NewSource(int64(mix(s.seed))))
	}
	return s.r
}

// mix is the SplitMix64 finaliser; it decorrelates nearby seeds.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives the n-th child stream. Children of distinct (seed, n)
// pairs are decorrelated by the SplitMix64 finaliser.
func (s *Stream) Split(n uint64) *Stream {
	return New(mix(s.seed ^ mix(n+0x1234_5678_9abc_def0)))
}

// Float64 returns a uniform deviate in [0, 1).
func (s *Stream) Float64() float64 { return s.src().Float64() }

// Intn returns a uniform integer in [0, n).
func (s *Stream) Intn(n int) int { return s.src().Intn(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Stream) Uint64() uint64 { return s.src().Uint64() }

// Norm returns a standard normal deviate via Box-Muller with caching.
func (s *Stream) Norm() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	r := s.src()
	var u, v, q float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		q = u*u + v*v
		if q > 0 && q < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(q) / q)
	s.spare = v * f
	s.hasSpare = true
	return u * f
}

// Exp returns an exponential deviate with the given rate (mean 1/rate).
// It panics on a non-positive rate.
func (s *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: non-positive exponential rate")
	}
	return s.src().ExpFloat64() / rate
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool { return s.src().Float64() < p }
