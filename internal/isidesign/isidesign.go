// Package isidesign implements the transmit-filter design strategies of
// the paper's Sec. III / Fig. 5 for the 1-bit oversampling receiver:
//
//	(a) Rect        — the ISI-free rectangular pulse (reference);
//	(b) Symbolwise  — ISI optimised for symbol-by-symbol detection, the
//	                  objective being the exact marginal information rate;
//	(c) Sequence    — ISI optimised for sequence estimation, the objective
//	                  being the simulation-based trellis information rate;
//	(d) Suboptimal  — a noise-independent design based purely on the
//	                  unique-detection property in the noise-free case.
//
// All searches are deterministic for a fixed Config.Seed.
package isidesign

import (
	"fmt"
	"math"

	"repro/internal/inforate"
	"repro/internal/modem"
	"repro/internal/numeric"
	"repro/internal/rng"
)

// Config parameterises a filter design run.
type Config struct {
	// Constellation is the symbol alphabet (the paper uses 4-ASK).
	Constellation modem.Constellation
	// OSF is the oversampling factor (5 in the paper — the smallest rate
	// that enables unique detection of regular 4-ASK).
	OSF int
	// SpanSymbols is the pulse length in symbol periods. The default is 2,
	// matching the paper's construction ("The ISI is represented by a
	// linear filter which can overlap with another symbol"); Fig. 5's
	// tau/T axis extends to [-1, 3] but the designed overlap is with the
	// neighbouring symbol. Larger spans are supported for ablation.
	SpanSymbols int
	// SNRdB is the design operating point (25 dB in Fig. 5 b/c).
	SNRdB float64
	// Seed drives the stochastic parts of the searches.
	Seed uint64
	// Sweeps bounds the coordinate-ascent passes (0 means 8).
	Sweeps int
	// SimSymbols is the sequence-rate simulation length per objective
	// evaluation (0 means 3000).
	SimSymbols int
	// UniqueDepth is the block-window length for the unique-detection
	// check (0 means SpanSymbols+1, i.e. a two-symbol decodable prefix).
	UniqueDepth int
}

func (c Config) defaults() Config {
	if c.Constellation.Size() == 0 {
		c.Constellation = modem.NewASK(4)
	}
	if c.OSF == 0 {
		c.OSF = 5
	}
	if c.SpanSymbols == 0 {
		c.SpanSymbols = 2
	}
	if c.SNRdB == 0 {
		c.SNRdB = 25
	}
	if c.Sweeps == 0 {
		c.Sweeps = 8
	}
	if c.SimSymbols == 0 {
		c.SimSymbols = 3000
	}
	if c.UniqueDepth == 0 {
		c.UniqueDepth = c.SpanSymbols + 1
	}
	return c
}

// Rect returns the ISI-free rectangular pulse (Fig. 5a).
func Rect(osf int) modem.Pulse { return modem.NewRect(osf) }

// Design bundles a designed pulse with the objective value it achieved.
type Design struct {
	Pulse modem.Pulse
	// Rate is the information rate (bpcu) of the design at the config's
	// SNR under its own target receiver.
	Rate float64
	// Strategy names the design for reports.
	Strategy string
}

// OptimizeSymbolwise searches a pulse that maximises the exact
// symbol-by-symbol information rate at the design SNR (Fig. 5b).
func OptimizeSymbolwise(cfg Config) Design {
	cfg = cfg.defaults()
	objective := func(taps []float64) float64 {
		p, ok := safePulse(taps, cfg.OSF)
		if !ok {
			return math.Inf(-1)
		}
		return inforate.SymbolwiseRate(inforate.NewTrellis(cfg.Constellation, p), cfg.SNRdB)
	}
	start := modem.NewRamp(cfg.OSF, cfg.SpanSymbols).Taps()
	taps, rate := numeric.CoordinateAscent(objective, start, numeric.CoordinateAscentOptions{
		Sweeps:      cfg.Sweeps,
		InitialStep: 0.25,
		MinStep:     1e-3,
	})
	p, _ := safePulse(taps, cfg.OSF)
	return Design{Pulse: p, Rate: rate, Strategy: "symbolwise-optimal"}
}

// OptimizeSequence searches a pulse that maximises the sequence-
// estimation information rate at the design SNR (Fig. 5c). The objective
// is the Arnold-Loeliger estimate with a fixed seed, making the search
// deterministic; the returned Rate is re-evaluated with a longer
// simulation for reporting.
func OptimizeSequence(cfg Config) Design {
	cfg = cfg.defaults()
	objective := func(taps []float64) float64 {
		p, ok := safePulse(taps, cfg.OSF)
		if !ok {
			return math.Inf(-1)
		}
		tr := inforate.NewTrellis(cfg.Constellation, p)
		return inforate.SequenceRate(tr, cfg.SNRdB, cfg.SimSymbols, cfg.Seed)
	}
	// Starting from the suboptimal (unique-detection) design gives the
	// search a point that already breaks the 1 bpcu ceiling. For
	// configurations without any uniquely detectable pulse (the paper
	// found none below 5-fold oversampling), fall back to the ramp.
	var start []float64
	if _, ok := findUniqueStart(cfg, rng.New(cfg.Seed)); ok {
		start = Suboptimal(cfg).Pulse.Taps()
	} else {
		start = modem.NewRamp(cfg.OSF, cfg.SpanSymbols).Taps()
	}
	taps, _ := numeric.CoordinateAscent(objective, start, numeric.CoordinateAscentOptions{
		Sweeps:      cfg.Sweeps,
		InitialStep: 0.2,
		MinStep:     2e-3,
	})
	p, _ := safePulse(taps, cfg.OSF)
	tr := inforate.NewTrellis(cfg.Constellation, p)
	rate := inforate.SequenceRate(tr, cfg.SNRdB, 4*cfg.SimSymbols, cfg.Seed+1)
	return Design{Pulse: p, Rate: rate, Strategy: "sequence-optimal"}
}

// Suboptimal returns the noise-independent design of Fig. 5d: it uses
// only the noise-free unique-detection property. Starting from a linear
// staircase it maximises the minimum noise-free sample magnitude (the
// detection margin) subject to the sequence mapping staying injective.
func Suboptimal(cfg Config) Design {
	cfg = cfg.defaults()
	stream := rng.New(cfg.Seed)

	start, ok := findUniqueStart(cfg, stream)
	if !ok {
		panic(fmt.Sprintf("isidesign: no uniquely detectable pulse found for OSF %d span %d"+
			" — the paper found 5-fold oversampling to be the smallest rate enabling unique detection",
			cfg.OSF, cfg.SpanSymbols))
	}

	// Maximise the noise-free margin subject to unique detection.
	objective := func(taps []float64) float64 {
		p, ok := safePulse(taps, cfg.OSF)
		if !ok {
			return math.Inf(-1)
		}
		tr := inforate.NewTrellis(cfg.Constellation, p)
		if !UniquelyDetectable(tr, cfg.UniqueDepth) {
			return math.Inf(-1)
		}
		return Margin(tr)
	}
	taps, _ := numeric.CoordinateAscent(objective, start.Taps(), numeric.CoordinateAscentOptions{
		Sweeps:      cfg.Sweeps,
		InitialStep: 0.15,
		MinStep:     1e-3,
	})
	p, _ := safePulse(taps, cfg.OSF)
	tr := inforate.NewTrellis(cfg.Constellation, p)
	rate := inforate.SequenceRate(tr, cfg.SNRdB, 4*cfg.SimSymbols, cfg.Seed+1)
	return Design{Pulse: p, Rate: rate, Strategy: "suboptimal (unique detection)"}
}

// findUniqueStart searches for a uniquely detectable pulse: the ramp if
// it happens to qualify, otherwise seeded random candidates. Unique
// detection is a measure-zero-avoiding property — random tap vectors
// qualify at a few-per-thousand rate for span 2 at 5-fold oversampling —
// but for some configurations (notably oversampling below 5, per the
// paper) no pulse qualifies at all, which the boolean reports.
func findUniqueStart(cfg Config, stream *rng.Stream) (modem.Pulse, bool) {
	isUnique := func(p modem.Pulse) bool {
		return UniquelyDetectable(inforate.NewTrellis(cfg.Constellation, p), cfg.UniqueDepth)
	}
	start := modem.NewRamp(cfg.OSF, cfg.SpanSymbols)
	for try := 0; !isUnique(start); try++ {
		if try >= 20000 {
			return modem.Pulse{}, false
		}
		taps := make([]float64, cfg.OSF*cfg.SpanSymbols)
		for i := range taps {
			taps[i] = stream.Norm()
		}
		if p, ok := safePulse(taps, cfg.OSF); ok {
			start = p
		}
	}
	return start, true
}

// safePulse builds a unit-energy pulse from raw taps, reporting false for
// degenerate (near-zero) tap vectors instead of panicking, so optimisers
// can probe freely.
func safePulse(taps []float64, osf int) (modem.Pulse, bool) {
	var energy float64
	for _, t := range taps {
		energy += t * t
	}
	if energy < 1e-18 {
		return modem.Pulse{}, false
	}
	return modem.NewPulse(taps, osf), true
}

// Margin returns the minimum absolute noise-free sample amplitude over
// all trellis branches: the distance of the closest sample to the 1-bit
// decision threshold. Designs with larger margins survive more noise
// before their sign patterns corrupt.
func Margin(t *inforate.Trellis) float64 {
	min := math.Inf(1)
	for s := 0; s < t.NumStates(); s++ {
		for u := 0; u < t.AlphabetSize(); u++ {
			for _, v := range t.BranchAmps(s, u) {
				if a := math.Abs(v); a < min {
					min = a
				}
			}
		}
	}
	return min
}

// UniquelyDetectable reports whether the pulse has the paper's "unique
// detection property in the noise free case": from every initial trellis
// state, the noise-free 1-bit output pattern of `depth` consecutive
// blocks determines the leading depth-span+1 input symbols. Trailing
// symbols whose pulse response extends beyond the window are exempt — a
// sequence decoder resolves them from later blocks, and by induction
// prefix-injectivity from every state suffices for full decodability.
//
// Samples landing exactly on the quantiser threshold count as failures:
// they are not robustly detectable. depth must be at least the pulse
// span.
func UniquelyDetectable(t *inforate.Trellis, depth int) bool {
	if depth < t.Span() {
		panic(fmt.Sprintf("isidesign: unique-detection depth %d below pulse span %d", depth, t.Span()))
	}
	m, osf := t.AlphabetSize(), t.OSF()
	nSeq := 1
	for i := 0; i < depth; i++ {
		nSeq *= m
	}
	if depth*osf > 63 {
		panic("isidesign: unique-detection pattern exceeds 63 bits")
	}
	prefixLen := depth - t.Span() + 1
	prefixMod := 1
	for i := 0; i < prefixLen; i++ {
		prefixMod *= m
	}
	for s0 := 0; s0 < t.NumStates(); s0++ {
		// pattern -> prefix symbols that produced it.
		seen := make(map[uint64]int, nSeq)
		for seq := 0; seq < nSeq; seq++ {
			var pattern uint64
			var bit uint
			state := s0
			ss := seq
			for d := 0; d < depth; d++ {
				u := ss % m
				ss /= m
				for _, v := range t.BranchAmps(state, u) {
					if math.Abs(v) < 1e-9 {
						return false // threshold-riding sample
					}
					if v > 0 {
						pattern |= 1 << bit
					}
					bit++
				}
				state = t.Next(state, u)
			}
			prefix := seq % prefixMod
			if prev, dup := seen[pattern]; dup {
				if prev != prefix {
					return false // same signs, different leading symbols
				}
				continue
			}
			seen[pattern] = prefix
		}
	}
	return true
}
