// Package channel models the board-to-board radio channel of the paper's
// Section II: the log-distance pathloss law (Eq. 1), an image-method
// multipath ray tracer for two parallel copper boards, and the synthesis
// of complex frequency responses that the synthetic VNA (package vna)
// sweeps.
//
// The paper's measured conclusions that this model reproduces:
//   - pathloss follows Eq. 1 with n = 2.000 in freespace and
//     n = 2.0454 between parallel copper boards (Fig. 1);
//   - all reflections stay >= 15 dB below the line of sight (Figs. 2-3);
//   - the channel is static and largely frequency flat.
package channel

import (
	"fmt"
	"math"
)

// Pathloss is the log-distance pathloss model of Eq. 1:
//
//	PL(d) = PL(d0) + 10 n log10(d / d0)   [dB].
type Pathloss struct {
	// RefDistM is the reference distance d0 in metres.
	RefDistM float64
	// RefLossDB is PL(d0) in dB.
	RefLossDB float64
	// Exponent is the pathloss exponent n (2 in freespace).
	Exponent float64
}

// NewFreespacePathloss returns the free-space (n = 2) model anchored at
// reference distance refDistM for the given carrier: PL(d0) is the Friis
// loss 20 log10(4 pi d0 / lambda).
func NewFreespacePathloss(freqHz, refDistM float64) Pathloss {
	if freqHz <= 0 || refDistM <= 0 {
		panic(fmt.Sprintf("channel: invalid freespace model f=%g Hz d0=%g m", freqHz, refDistM))
	}
	lambda := 299_792_458.0 / freqHz
	return Pathloss{
		RefDistM:  refDistM,
		RefLossDB: 20 * math.Log10(4*math.Pi*refDistM/lambda),
		Exponent:  2,
	}
}

// LossDB returns PL(d) in dB. It panics on non-positive distance.
func (p Pathloss) LossDB(distM float64) float64 {
	if distM <= 0 {
		panic(fmt.Sprintf("channel: non-positive distance %g m", distM))
	}
	return p.RefLossDB + 10*p.Exponent*math.Log10(distM/p.RefDistM)
}

// String implements fmt.Stringer.
func (p Pathloss) String() string {
	return fmt.Sprintf("PL(d) = %.2f dB + 10*%.4f*log10(d/%.3g m)", p.RefLossDB, p.Exponent, p.RefDistM)
}

// FitPathloss estimates (PL(d0), n) from distance/loss samples by linear
// least squares on the log-distance axis, anchored at reference distance
// refDistM. It returns the fitted model and the fit's R^2. It panics on
// fewer than two samples (an under-determined fit is a caller bug).
func FitPathloss(distM, lossDB []float64, refDistM float64) (Pathloss, float64) {
	if len(distM) != len(lossDB) {
		panic("channel: FitPathloss length mismatch")
	}
	if len(distM) < 2 {
		panic("channel: FitPathloss needs at least two samples")
	}
	// Regress loss on x = 10 log10(d/d0); slope is n, intercept PL(d0).
	xs := make([]float64, len(distM))
	for i, d := range distM {
		if d <= 0 {
			panic(fmt.Sprintf("channel: FitPathloss sample %d has non-positive distance", i))
		}
		xs[i] = 10 * math.Log10(d/refDistM)
	}
	a, b, r2 := linearFit(xs, lossDB)
	return Pathloss{RefDistM: refDistM, RefLossDB: a, Exponent: b}, r2
}

// linearFit fits ys = a + b*xs by ordinary least squares and returns
// the intercept, the slope and R^2. The slope is NaN when all xs are
// equal; R^2 is 1 when all ys are.
func linearFit(xs, ys []float64) (a, b, r2 float64) {
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	b = sxy / sxx
	a = my - b*mx
	if syy == 0 {
		r2 = 1
	} else {
		r2 = sxy * sxy / (sxx * syy)
	}
	return a, b, r2
}
