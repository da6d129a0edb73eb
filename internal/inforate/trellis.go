// Package inforate computes the information rates of Sec. III: achievable
// rates of M-ASK over AWGN with a 1-bit oversampling receiver, with and
// without designed inter-symbol interference (Fig. 6).
//
// The transmit pulse spanning S symbol periods turns the channel into a
// finite-state machine with M^(S-1) states; the package provides
//
//   - SequenceRate: the simulation-based information-rate estimator of
//     Arnold & Loeliger (forward recursion of the joint trellis), the rate
//     a sequence-estimation receiver achieves;
//   - SymbolwiseRate: the exact mutual information of the marginal
//     per-symbol channel, the rate of a symbol-by-symbol receiver that
//     treats ISI as dithering;
//   - UnquantizedRate: the M-ASK AWGN mutual information without
//     quantisation (Gauss-Hermite quadrature), the "No Quantization"
//     reference;
//   - reference 1-bit rates without oversampling or without ISI.
//
// SNR convention: matched-filter SNR = 1/sigma^2 (unit-energy pulse,
// unit-average-energy constellation), matching package modem.
package inforate

import (
	"fmt"

	"repro/internal/modem"
)

// Trellis is the finite-state description of the 1-bit oversampled ISI
// channel: state = the S-1 previous symbols, input = the current symbol,
// output = OSF noiseless amplitudes per branch.
type Trellis struct {
	numStates int
	osf       int
	m         int // alphabet size
	span      int
	// amps[(state*m+input)*osf + k] is noiseless sample k of the branch.
	amps []float64
	// next[state*m+input] is the successor state.
	next []int
}

// NewTrellis builds the trellis for a constellation and pulse. The state
// count is M^(span-1); pulses with spans that would exceed 1<<20 states
// are rejected as a configuration error.
func NewTrellis(c modem.Constellation, p modem.Pulse) *Trellis {
	m := c.Size()
	span := p.SpanSymbols()
	states := 1
	for j := 1; j < span; j++ {
		states *= m
		if states > 1<<20 {
			panic(fmt.Sprintf("inforate: %d-ASK with span %d exceeds the state budget", m, span))
		}
	}
	t := &Trellis{
		numStates: states,
		osf:       p.OSF(),
		m:         m,
		span:      span,
		amps:      make([]float64, states*m*p.OSF()),
		next:      make([]int, states*m),
	}
	history := make([]float64, span)
	block := make([]float64, p.OSF())
	for s := 0; s < states; s++ {
		// Decode state digits: digit j-1 (base m) = index of symbol x_{t-j}.
		for u := 0; u < m; u++ {
			history[0] = c.Level(u)
			ss := s
			for j := 1; j < span; j++ {
				history[j] = c.Level(ss % m)
				ss /= m
			}
			p.BlockAmplitudes(history, block)
			copy(t.amps[(s*m+u)*t.osf:], block)
			t.next[s*m+u] = (u + s*m) % states
		}
	}
	return t
}

// NumStates returns the trellis state count.
func (t *Trellis) NumStates() int { return t.numStates }

// NumBranches returns the number of (state, input) branches.
func (t *Trellis) NumBranches() int { return t.numStates * t.m }

// AlphabetSize returns the input alphabet size M.
func (t *Trellis) AlphabetSize() int { return t.m }

// OSF returns the samples per symbol.
func (t *Trellis) OSF() int { return t.osf }

// Span returns the pulse span in symbols.
func (t *Trellis) Span() int { return t.span }

// Next returns the successor state of (state, input).
func (t *Trellis) Next(state, input int) int { return t.next[state*t.m+input] }

// BranchAmps returns the noiseless amplitude samples of (state, input)
// without copying; the caller must not modify the result.
func (t *Trellis) BranchAmps(state, input int) []float64 {
	off := (state*t.m + input) * t.osf
	return t.amps[off : off+t.osf]
}
