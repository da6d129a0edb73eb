package antenna

import (
	"math"
	"math/cmplx"
)

// ButlerMatrix is a fixed-beam beamforming network for a uniform linear
// axis of n (power of two) elements. Feeding port k excites a progressive
// phase slope that points the beam at one of n fixed directions
// sin(theta_k) = (2k - n + 1) / (2 n d), the classic Butler grid.
//
// Compared with continuous beam steering it needs no phase shifters, but
// a link whose true direction falls between two grid beams suffers a
// scalloping (direction-mismatch) loss; Table I budgets 5 dB for it.
type ButlerMatrix struct {
	n int
	d float64 // element spacing in wavelengths
}

// NewButlerMatrix returns an n-port Butler matrix for element spacing d
// (wavelengths). n must be a positive power of two — the network is built
// from hybrid couplers, which only compose in powers of two.
func NewButlerMatrix(n int, d float64) *ButlerMatrix {
	if n <= 0 || n&(n-1) != 0 {
		panic("antenna: Butler matrix size must be a positive power of two")
	}
	if d <= 0 {
		panic("antenna: Butler matrix needs positive element spacing")
	}
	return &ButlerMatrix{n: n, d: d}
}

// BeamDirections returns sin(theta) of each fixed beam, sorted ascending.
func (b *ButlerMatrix) BeamDirections() []float64 {
	out := make([]float64, b.n)
	for k := 0; k < b.n; k++ {
		out[k] = (2*float64(k) - float64(b.n) + 1) / (2 * float64(b.n) * b.d)
	}
	return out
}

// Weights returns the element excitation for beam port k (unit-magnitude
// progressive phases).
func (b *ButlerMatrix) Weights(k int) []complex128 {
	if k < 0 || k >= b.n {
		panic("antenna: Butler beam port out of range")
	}
	u := b.BeamDirections()[k]
	w := make([]complex128, b.n)
	for i := 0; i < b.n; i++ {
		w[i] = cmplx.Exp(complex(0, -2*math.Pi*b.d*float64(i)*u))
	}
	return w
}

// BestPort returns the beam port whose direction is closest to the wanted
// sin(theta) value u.
func (b *ButlerMatrix) BestPort(u float64) int {
	dirs := b.BeamDirections()
	best, bestDist := 0, math.Inf(1)
	for k, du := range dirs {
		if d := math.Abs(du - u); d < bestDist {
			best, bestDist = k, d
		}
	}
	return best
}

// arrayFactorLinear evaluates the linear-array factor of weights w toward
// direction u = sin(theta).
func (b *ButlerMatrix) arrayFactorLinear(w []complex128, u float64) float64 {
	var sum complex128
	for i := 0; i < b.n; i++ {
		sum += w[i] * cmplx.Exp(complex(0, 2*math.Pi*b.d*float64(i)*u))
	}
	return cmplx.Abs(sum)
}

// MismatchLossDB returns the scalloping loss (dB, >= 0) when the wanted
// direction u = sin(theta) is served by the nearest fixed beam instead of
// an exactly steered one.
func (b *ButlerMatrix) MismatchLossDB(u float64) float64 {
	w := b.Weights(b.BestPort(u))
	af := b.arrayFactorLinear(w, u)
	ideal := float64(b.n) // perfectly steered array factor magnitude
	if af <= 0 {
		return math.Inf(1)
	}
	return 20 * math.Log10(ideal/af)
}

// WorstCaseMismatchLossDB returns the maximum scalloping loss over the
// steering range |sin(theta)| <= maxU, scanned at the given resolution.
// With half-wave spacing and a 4x4 array this lands in the vicinity of
// the 5 dB "Butler matrix inaccuracy" of Table I once both link ends are
// counted.
func (b *ButlerMatrix) WorstCaseMismatchLossDB(maxU float64, steps int) float64 {
	if steps < 2 {
		steps = 2
	}
	worst := 0.0
	for i := 0; i <= steps; i++ {
		u := -maxU + 2*maxU*float64(i)/float64(steps)
		if l := b.MismatchLossDB(u); l > worst && !math.IsInf(l, 1) {
			worst = l
		}
	}
	return worst
}
