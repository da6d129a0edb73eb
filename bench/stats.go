package main

import (
	"math"
	"sort"
)

// sampleCap bounds how many observations samples keeps: past it the
// set becomes a uniform reservoir, so a warm run with millions of store
// lookups still has a fixed memory cost and an unbiased median.
const sampleCap = 1 << 14

// samples accumulates observations: an exact count and sum, plus a
// bounded uniform sample of the values for quantiles.
type samples struct {
	n    int
	sum  float64
	vals []float64
	rnd  uint64 // xorshift state for reservoir replacement
}

func (s *samples) add(v float64) {
	s.n++
	s.sum += v
	if len(s.vals) < sampleCap {
		s.vals = append(s.vals, v)
		return
	}
	if s.rnd == 0 {
		s.rnd = 0x9e3779b97f4a7c15
	}
	s.rnd ^= s.rnd << 13
	s.rnd ^= s.rnd >> 7
	s.rnd ^= s.rnd << 17
	if k := s.rnd % uint64(s.n); k < sampleCap {
		s.vals[k] = v
	}
}

// clone copies the samples, so a snapshot never shares its backing
// array with a set that is still being added to.
func (s samples) clone() samples {
	s.vals = append([]float64(nil), s.vals...)
	return s
}

// quantile is the q-quantile of the kept values, 0 when there are none.
func (s samples) quantile(q float64) float64 { return quantile(s.vals, q) }

// quantile interpolates linearly between order statistics (the R-7 and
// numpy default): q = 0 is the minimum, q = 1 the maximum. It returns 0
// for an empty set and leaves vals unmodified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailQuantile is the highest quantile with at least ten samples beyond
// it, 1 - 10/n, kept within [0.5, 0.99] so a short run still reports
// its median and a long one its p99.
func tailQuantile(n int) float64 {
	if n <= 0 {
		return 0.5
	}
	return math.Min(0.99, math.Max(0.5, 1-10/float64(n)))
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) and
// statistics.median do (the "exclusive" method), so spreads printed here
// match the ones the benchmark's acceptance check computes. A single
// value is its own quartiles.
func quartiles(vals []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	if len(d)%2 == 1 {
		med = d[len(d)/2]
	} else {
		med = (d[len(d)/2-1] + d[len(d)/2]) / 2
	}
	return cut(1), med, cut(3)
}
