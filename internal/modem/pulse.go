package modem

import (
	"fmt"
	"math"
)

// Pulse is a discrete-time transmit filter sampled at OSF samples per
// symbol period. Its taps may span several symbol periods — that overlap
// is the designed inter-symbol interference of Sec. III. Pulses are kept
// at unit energy so the SNR convention of the package holds.
type Pulse struct {
	taps []float64
	osf  int
}

// NewPulse builds a pulse from raw taps at the given oversampling factor
// and normalises it to unit energy. len(taps) must be a positive multiple
// of osf.
func NewPulse(taps []float64, osf int) Pulse {
	if osf < 1 {
		panic(fmt.Sprintf("modem: oversampling factor %d < 1", osf))
	}
	if len(taps) == 0 || len(taps)%osf != 0 {
		panic(fmt.Sprintf("modem: %d taps is not a positive multiple of OSF %d", len(taps), osf))
	}
	var energy float64
	for _, t := range taps {
		energy += t * t
	}
	if energy == 0 {
		panic("modem: zero-energy pulse")
	}
	scale := 1 / math.Sqrt(energy)
	p := Pulse{taps: make([]float64, len(taps)), osf: osf}
	for i, t := range taps {
		p.taps[i] = t * scale
	}
	return p
}

// NewRect returns the ISI-free rectangular pulse (Fig. 5a): constant over
// one symbol period.
func NewRect(osf int) Pulse {
	taps := make([]float64, osf)
	for i := range taps {
		taps[i] = 1
	}
	return NewPulse(taps, osf)
}

// NewRamp returns a linear staircase spanning spanSymbols periods, rising
// from -0.5 to +1.0 — the general shape of the paper's suboptimal design
// (Fig. 5d). It serves as the starting point for the design searches.
func NewRamp(osf, spanSymbols int) Pulse {
	if spanSymbols < 1 {
		panic(fmt.Sprintf("modem: pulse span %d < 1 symbol", spanSymbols))
	}
	n := osf * spanSymbols
	taps := make([]float64, n)
	for i := range taps {
		t := float64(i) / float64(n-1)
		taps[i] = -0.5 + 1.5*t
	}
	return NewPulse(taps, osf)
}

// OSF returns the oversampling factor.
func (p Pulse) OSF() int { return p.osf }

// SpanSymbols returns the pulse length in symbol periods.
func (p Pulse) SpanSymbols() int { return len(p.taps) / p.osf }

// Taps returns a copy of the (unit-energy) tap vector.
func (p Pulse) Taps() []float64 {
	return append([]float64(nil), p.taps...)
}

// IsRect reports whether the pulse is (numerically) the rectangular
// ISI-free pulse.
func (p Pulse) IsRect() bool {
	if p.SpanSymbols() != 1 {
		return false
	}
	want := 1 / math.Sqrt(float64(p.osf))
	for _, t := range p.taps {
		if math.Abs(t-want) > 1e-12 {
			return false
		}
	}
	return true
}

// Modulate synthesises the oversampled waveform for the symbol amplitude
// sequence xs: s[n] = sum_k xs[k] * h[n - k*OSF]. The output has
// (len(xs)+span-1)*OSF samples covering all pulse tails.
func (p Pulse) Modulate(xs []float64) []float64 {
	span := p.SpanSymbols()
	out := make([]float64, (len(xs)+span-1)*p.osf)
	for k, x := range xs {
		if x == 0 {
			continue
		}
		base := k * p.osf
		for i, h := range p.taps {
			out[base+i] += x * h
		}
	}
	return out
}

// BlockAmplitudes returns the noiseless samples of one symbol block given
// the current symbol and the span-1 previous symbols: sample m of block t
// is sum_{j=0..span-1} history[j] * taps[j*OSF + m], where history[0] is
// the current symbol and history[j] the j-th previous one. This is the
// branch-output function of the finite-state channel trellis.
func (p Pulse) BlockAmplitudes(history []float64, dst []float64) []float64 {
	span := p.SpanSymbols()
	if len(history) != span {
		panic(fmt.Sprintf("modem: history length %d, want span %d", len(history), span))
	}
	if dst == nil {
		dst = make([]float64, p.osf)
	}
	for m := 0; m < p.osf; m++ {
		var v float64
		for j := 0; j < span; j++ {
			v += history[j] * p.taps[j*p.osf+m]
		}
		dst[m] = v
	}
	return dst
}
