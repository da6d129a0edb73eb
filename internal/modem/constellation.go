// Package modem provides the transmit-side signal model of the paper's
// Sec. III: M-ASK constellations, staircase transmit pulses spanning
// several symbol periods (the designed inter-symbol interference of
// Fig. 5), their noiseless per-block samples (the branch outputs of the
// 1-bit receiver's trellis), oversampled waveform synthesis and the
// noise level for a target SNR.
//
// Conventions: constellations are normalised to unit average symbol
// energy and pulses to unit energy, so SNR = 1/sigma^2 where sigma is the
// per-sample noise standard deviation times sqrt(oversampling) — i.e. the
// matched-filter SNR a full-resolution receiver would see.
package modem

import (
	"fmt"
	"math"
)

// Constellation is a real amplitude-shift-keying symbol alphabet with
// unit average energy.
type Constellation struct {
	levels []float64
}

// NewASK returns the m-ASK constellation with equidistant levels
// {-(m-1), ..., -1, +1, ..., +(m-1)} scaled to unit average energy.
// m must be an even integer >= 2 (the paper uses 4-ASK).
func NewASK(m int) Constellation {
	if m < 2 || m%2 != 0 {
		panic(fmt.Sprintf("modem: ASK order must be even and >= 2, got %d", m))
	}
	levels := make([]float64, m)
	var energy float64
	for i := 0; i < m; i++ {
		levels[i] = float64(2*i - m + 1)
		energy += levels[i] * levels[i]
	}
	scale := 1 / math.Sqrt(energy/float64(m))
	for i := range levels {
		levels[i] *= scale
	}
	return Constellation{levels: levels}
}

// Size returns the alphabet size.
func (c Constellation) Size() int { return len(c.levels) }

// Level returns the amplitude of symbol index i (sorted ascending).
func (c Constellation) Level(i int) float64 { return c.levels[i] }
