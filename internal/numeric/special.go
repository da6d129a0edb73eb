// Package numeric provides the numerical kernels shared by the
// wireless-interconnect library: the Gaussian tail function Q and its
// log-domain form, Gauss-Hermite quadrature for Gaussian expectations,
// a coordinate-ascent maximiser and Clamp.
//
// Everything is deterministic. The information-rate bounds of the 1-bit
// receiver (paper Sec. III) use Q, log Q, the quadrature and Clamp; the
// pulse-design search (Sec. III) uses coordinate ascent.
package numeric

import "math"

// QFunc is the Gaussian tail probability Q(x) = P(N(0,1) > x).
// It is computed via erfc for numerical stability in both tails.
func QFunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// LogQ returns log Q(x), stable for large x where Q underflows.
func LogQ(x float64) float64 {
	if x < 30 {
		q := QFunc(x)
		if q > 0 {
			return math.Log(q)
		}
	}
	// Asymptotic expansion: Q(x) ~ phi(x)/x * (1 - 1/x^2 + 3/x^4).
	logPhi := -0.5*x*x - 0.5*math.Log(2*math.Pi)
	return logPhi - math.Log(x) + math.Log1p(-1/(x*x)+3/(x*x*x*x))
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
