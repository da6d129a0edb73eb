package isidesign

import (
	"math"
	"testing"

	"repro/internal/inforate"
	"repro/internal/modem"
)

func ask4() modem.Constellation { return modem.NewASK(4) }

// quickCfg keeps optimiser budgets small for unit tests.
func quickCfg() Config {
	return Config{Seed: 1, Sweeps: 3, SimSymbols: 1500}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.defaults()
	if cfg.OSF != 5 || cfg.SpanSymbols != 2 || cfg.SNRdB != 25 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	if cfg.UniqueDepth != 3 {
		t.Errorf("unique depth = %d, want span+1 = 3", cfg.UniqueDepth)
	}
	if cfg.Constellation.Size() != 4 {
		t.Errorf("default constellation size = %d, want 4", cfg.Constellation.Size())
	}
}

func TestRectIsRect(t *testing.T) {
	if !Rect(5).IsRect() {
		t.Error("Rect(5) is not the rectangular pulse")
	}
}

func TestMarginOfRect(t *testing.T) {
	// Rect pulse: every sample is x/sqrt(5); the weakest symbol is the
	// inner level of 4-ASK, 1/sqrt(5) in amplitude.
	tr := inforate.NewTrellis(ask4(), Rect(5))
	want := modem.NewASK(4).Level(2) / math.Sqrt(5)
	if got := Margin(tr); math.Abs(got-want) > 1e-12 {
		t.Errorf("rect margin = %g, want %g", got, want)
	}
}

func TestRectNotUniquelyDetectable(t *testing.T) {
	// Without ISI all five signs are equal: the magnitudes +1 and +3
	// collide, so the rect pulse must fail the check.
	tr := inforate.NewTrellis(ask4(), Rect(5))
	if UniquelyDetectable(tr, 2) {
		t.Error("rect pulse reported uniquely detectable")
	}
}

func TestUniquelyDetectablePanics(t *testing.T) {
	tr := inforate.NewTrellis(ask4(), modem.NewRamp(5, 2))
	for name, fn := range map[string]func(){
		"depthBelowSpan": func() { UniquelyDetectable(tr, 1) },
		"patternTooWide": func() {
			wide := inforate.NewTrellis(ask4(), modem.NewRamp(32, 2))
			UniquelyDetectable(wide, 2)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSuboptimalDesignIsUnique(t *testing.T) {
	cfg := quickCfg()
	d := Suboptimal(cfg)
	tr := inforate.NewTrellis(ask4(), d.Pulse)
	if !UniquelyDetectable(tr, 3) {
		t.Fatal("suboptimal design lost unique detectability")
	}
	if Margin(tr) <= 0 {
		t.Error("suboptimal design has zero noise-free margin")
	}
	// Unique detection lets sequence estimation separate all magnitudes:
	// the rate must clear the 1 bpcu sign-only ceiling at the design SNR.
	if d.Rate < 1.2 {
		t.Errorf("suboptimal design rate = %.3f at 25 dB, want > 1.2", d.Rate)
	}
}

func TestSuboptimalDeterministic(t *testing.T) {
	a := Suboptimal(quickCfg())
	b := Suboptimal(quickCfg())
	ta, tb := a.Pulse.Taps(), b.Pulse.Taps()
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatal("suboptimal design not deterministic for a fixed seed")
		}
	}
}

func TestOptimizeSymbolwiseBeatsRect(t *testing.T) {
	cfg := quickCfg()
	d := OptimizeSymbolwise(cfg)
	tr := inforate.NewTrellis(ask4(), Rect(5))
	rectRate := inforate.SymbolwiseRate(tr, cfg.defaults().SNRdB)
	if d.Rate <= rectRate {
		t.Errorf("symbolwise-optimal %.3f not above rect %.3f", d.Rate, rectRate)
	}
	// The designed ISI must push the symbol-by-symbol rate past the
	// 1-bit sign ceiling.
	if d.Rate < 1.1 {
		t.Errorf("symbolwise-optimal rate %.3f, want > 1.1", d.Rate)
	}
}

func TestOptimizeSequenceOrdering(t *testing.T) {
	// The paper's Fig. 6 ordering at the design point, all evaluated
	// under sequence estimation: sequence-optimal >= suboptimal > rect.
	cfg := quickCfg()
	seq := OptimizeSequence(cfg)
	sub := Suboptimal(cfg)

	evalSeq := func(p modem.Pulse) float64 {
		return inforate.SequenceRate(inforate.NewTrellis(ask4(), p), 25, 10000, 77)
	}
	seqRate := evalSeq(seq.Pulse)
	subRate := evalSeq(sub.Pulse)
	rectRate := evalSeq(Rect(5))

	if seqRate < subRate-0.05 { // allow Monte-Carlo slack
		t.Errorf("sequence-optimal %.3f below suboptimal %.3f", seqRate, subRate)
	}
	if subRate <= rectRate {
		t.Errorf("suboptimal %.3f not above rect %.3f", subRate, rectRate)
	}
	if seqRate < 1.5 {
		t.Errorf("sequence-optimal rate %.3f at 25 dB, want > 1.5", seqRate)
	}
}

func TestSymbolwiseOptimalWinsUnderItsOwnReceiver(t *testing.T) {
	// Under symbol-by-symbol detection, the symbolwise-optimised filter
	// must beat the sequence-optimised one (which is free to create ISI
	// that only a sequence estimator untangles).
	cfg := quickCfg()
	sbs := OptimizeSymbolwise(cfg)
	seq := OptimizeSequence(cfg)
	rsbs := inforate.SymbolwiseRate(inforate.NewTrellis(ask4(), sbs.Pulse), 25)
	rseq := inforate.SymbolwiseRate(inforate.NewTrellis(ask4(), seq.Pulse), 25)
	if rsbs < rseq {
		t.Errorf("symbolwise-optimal %.3f below sequence-optimal %.3f under symbolwise detection", rsbs, rseq)
	}
}

func TestDesignStrategiesLabelled(t *testing.T) {
	cfg := quickCfg()
	if s := Suboptimal(cfg).Strategy; s != "suboptimal (unique detection)" {
		t.Errorf("suboptimal strategy label = %q", s)
	}
	if s := OptimizeSymbolwise(cfg).Strategy; s != "symbolwise-optimal" {
		t.Errorf("symbolwise strategy label = %q", s)
	}
	if s := OptimizeSequence(cfg).Strategy; s != "sequence-optimal" {
		t.Errorf("sequence strategy label = %q", s)
	}
}

func TestDesignedPulsesUnitEnergy(t *testing.T) {
	cfg := quickCfg()
	for _, d := range []Design{Suboptimal(cfg), OptimizeSymbolwise(cfg), OptimizeSequence(cfg)} {
		var e float64
		for _, h := range d.Pulse.Taps() {
			e += h * h
		}
		if math.Abs(e-1) > 1e-9 {
			t.Errorf("%s pulse energy = %g, want 1", d.Strategy, e)
		}
		if d.Pulse.OSF() != 5 || d.Pulse.SpanSymbols() != 2 {
			t.Errorf("%s pulse shape %dx%d, want 5x2", d.Strategy, d.Pulse.OSF(), d.Pulse.SpanSymbols())
		}
	}
}
