package channel

import (
	"math"
	"testing"
	"testing/quick"
)

const (
	carrierHz = 232.5e9 // centre of the 220-245 GHz measurement band
	bandLoHz  = 220e9
	bandHiHz  = 245e9
)

func TestFreespacePathlossMatchesTableI(t *testing.T) {
	pl := NewFreespacePathloss(carrierHz, 0.1)
	// Table I: 59.8 dB at 0.1 m, 69.3 dB at 0.3 m (232.5 GHz).
	if got := pl.LossDB(0.1); math.Abs(got-59.8) > 0.05 {
		t.Errorf("PL(0.1 m) = %.2f dB, want 59.8", got)
	}
	if got := pl.LossDB(0.3); math.Abs(got-69.3) > 0.05 {
		t.Errorf("PL(0.3 m) = %.2f dB, want 69.3", got)
	}
}

func TestPathlossExponentScaling(t *testing.T) {
	pl := Pathloss{RefDistM: 1, RefLossDB: 60, Exponent: 2}
	// Doubling distance with n=2 adds 6.02 dB.
	if diff := pl.LossDB(2) - pl.LossDB(1); math.Abs(diff-6.0206) > 1e-3 {
		t.Errorf("doubling added %.3f dB, want 6.02", diff)
	}
	pl.Exponent = 3
	if diff := pl.LossDB(2) - pl.LossDB(1); math.Abs(diff-9.031) > 1e-3 {
		t.Errorf("n=3 doubling added %.3f dB, want 9.03", diff)
	}
}

func TestPathlossPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zeroDist":  func() { NewFreespacePathloss(carrierHz, 0.1).LossDB(0) },
		"badFreq":   func() { NewFreespacePathloss(0, 0.1) },
		"badRef":    func() { NewFreespacePathloss(carrierHz, 0) },
		"fitLenMis": func() { FitPathloss([]float64{1}, []float64{1, 2}, 1) },
		"fitShort":  func() { FitPathloss([]float64{1}, []float64{1}, 1) },
		"fitNegDis": func() { FitPathloss([]float64{1, -1}, []float64{1, 2}, 1) },
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

func TestFitPathlossRecoversExactModel(t *testing.T) {
	truth := Pathloss{RefDistM: 0.1, RefLossDB: 59.8, Exponent: 2.0454}
	ds := []float64{0.05, 0.08, 0.1, 0.15, 0.2, 0.25, 0.3}
	ls := make([]float64, len(ds))
	for i, d := range ds {
		ls[i] = truth.LossDB(d)
	}
	fit, r2 := FitPathloss(ds, ls, 0.1)
	if math.Abs(fit.Exponent-2.0454) > 1e-9 {
		t.Errorf("fitted n = %g, want 2.0454", fit.Exponent)
	}
	if math.Abs(fit.RefLossDB-59.8) > 1e-9 {
		t.Errorf("fitted PL(d0) = %g, want 59.8", fit.RefLossDB)
	}
	if r2 < 1-1e-12 {
		t.Errorf("R^2 = %g, want 1 for noiseless fit", r2)
	}
}

func freespaceScenario(d float64) Scenario {
	return Scenario{LinkDistM: d, TXGainDB: HornGainDB, RXGainDB: HornGainDB}
}

func boardScenario(d float64) Scenario {
	return Scenario{LinkDistM: d, CopperBoards: true, TXGainDB: HornGainDB, RXGainDB: HornGainDB}
}

func TestRaysLoSFirstAndDelay(t *testing.T) {
	rays := boardScenario(0.05).Rays()
	if rays[0].Label != "line of sight" {
		t.Fatalf("first ray is %q, want line of sight", rays[0].Label)
	}
	wantDelay := 0.05 / 299792458.0
	if math.Abs(rays[0].DelayS()-wantDelay) > 1e-15 {
		t.Errorf("LoS delay = %g, want %g", rays[0].DelayS(), wantDelay)
	}
}

func TestFreespaceHasNoBoardEchoes(t *testing.T) {
	for _, r := range freespaceScenario(0.05).Rays() {
		if r.Label == "copper boards" {
			t.Error("freespace scenario produced a copper-board ray")
		}
	}
}

func TestBoardScenarioEchoFamilies(t *testing.T) {
	rays := boardScenario(0.05).Rays()
	counts := map[string]int{}
	for _, r := range rays {
		counts[r.Label]++
	}
	if counts["line of sight"] != 1 {
		t.Errorf("LoS rays = %d, want 1", counts["line of sight"])
	}
	if counts["copper boards"] != 3 { // default MaxRoundTrips
		t.Errorf("copper-board echoes = %d, want 3", counts["copper boards"])
	}
	if counts["horn antennas"] != 3 {
		t.Errorf("horn echoes = %d, want 3", counts["horn antennas"])
	}
	if counts["antenna ports"] != 2 {
		t.Errorf("port echoes = %d, want 2", counts["antenna ports"])
	}
}

func TestEchoDelaysAreOddTransitMultiples(t *testing.T) {
	const d = 0.05
	for _, r := range boardScenario(d).Rays() {
		if r.Label == "copper boards" || r.Label == "horn antennas" {
			ratio := r.LengthM / d
			k := math.Round(ratio)
			if math.Abs(ratio-k) > 1e-9 || int(k)%2 == 0 {
				t.Errorf("%s echo length %.3g m is not an odd multiple of d", r.Label, r.LengthM)
			}
			if int(k) != r.Transits {
				t.Errorf("transits %d disagrees with length ratio %g", r.Transits, ratio)
			}
		}
	}
}

func TestEchoesAtLeast15dBBelowLoS(t *testing.T) {
	// The paper's central measurement conclusion (Figs. 2-3): reflections
	// are always at least 15 dB below the main signal path.
	for _, d := range []float64{0.05, 0.1, 0.15, 0.3} {
		rel := boardScenario(d).WorstEchoRelativeDB(carrierHz)
		if rel > -15 {
			t.Errorf("d=%.2f m: worst echo %.1f dB relative to LoS, want <= -15", d, rel)
		}
		if rel < -40 {
			t.Errorf("d=%.2f m: worst echo %.1f dB — echoes unrealistically absent", d, rel)
		}
	}
}

func TestDiagonalEchoesWeakerThanAhead(t *testing.T) {
	// Rotating the boards steers the specular board echo away from the
	// return path, so the diagonal link's echoes are further suppressed
	// (compare Figs. 2 and 3).
	ahead := boardScenario(0.05).WorstEchoRelativeDB(carrierHz)
	diag := DiagonalScenario(0.15, 0.05, true).WorstEchoRelativeDB(carrierHz)
	if diag >= ahead {
		t.Errorf("diagonal worst echo %.1f dB not below ahead %.1f dB", diag, ahead)
	}
}

func TestChannelLargelyFrequencyFlat(t *testing.T) {
	// Paper Sec. VI: "the channel can be assumed to be static and largely
	// frequency flat". Across 220-245 GHz the board channel magnitude
	// should vary by only a few dB around its mean.
	sc := boardScenario(0.1)
	freqs := make([]float64, 256)
	for i := range freqs {
		freqs[i] = bandLoHz + (bandHiHz-bandLoHz)*float64(i)/255
	}
	h := sc.FrequencyResponse(freqs)
	minDB, maxDB := math.Inf(1), math.Inf(-1)
	for _, v := range h {
		db := 20 * math.Log10(cmplxAbs(v))
		minDB = math.Min(minDB, db)
		maxDB = math.Max(maxDB, db)
	}
	if ripple := maxDB - minDB; ripple > 6 {
		t.Errorf("in-band ripple %.1f dB, want < 6 (largely flat)", ripple)
	}
}

func cmplxAbs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }

func TestFrequencyResponseLevelMatchesLinkBudget(t *testing.T) {
	// |S21| at the centre frequency should approximate
	// -(pathloss) + TX gain + RX gain for the dominant LoS ray.
	sc := freespaceScenario(0.1)
	sc.HornReflLossDB = 100 // suppress echoes for the level check
	sc.PortReflLossDB = 100
	h := sc.FrequencyResponse([]float64{carrierHz})
	gotDB := 20 * math.Log10(cmplxAbs(h[0]))
	wantDB := -59.8 + 9.5 + 9.5
	if math.Abs(gotDB-wantDB) > 0.1 {
		t.Errorf("|S21| = %.2f dB, want %.2f", gotDB, wantDB)
	}
}

func TestFittedExponentFreespace(t *testing.T) {
	// Sweeping the freespace scenario must recover n very close to 2.000.
	ds := []float64{0.05, 0.075, 0.1, 0.125, 0.15, 0.2, 0.25, 0.3}
	ls := make([]float64, len(ds))
	for i, d := range ds {
		g := freespaceScenario(d).BandAveragedGainDB(bandLoHz, bandHiHz, 128)
		ls[i] = -(g - 2*HornGainDB) // remove antenna gains
	}
	fit, r2 := FitPathloss(ds, ls, 0.1)
	if math.Abs(fit.Exponent-2.0) > 0.01 {
		t.Errorf("freespace fitted n = %.4f, want 2.000", fit.Exponent)
	}
	if r2 < 0.999 {
		t.Errorf("freespace fit R^2 = %g", r2)
	}
}

func TestFittedExponentCopperBoards(t *testing.T) {
	// With boards and the diagonal-link misalignment model, the fitted
	// exponent should land near the paper's 2.0454.
	ds := []float64{0.05, 0.075, 0.1, 0.125, 0.15, 0.2, 0.25, 0.3}
	ls := make([]float64, len(ds))
	for i, d := range ds {
		g := DiagonalScenario(d, 0.05, true).BandAveragedGainDB(bandLoHz, bandHiHz, 128)
		ls[i] = -(g - 2*HornGainDB)
	}
	fit, r2 := FitPathloss(ds, ls, 0.1)
	if fit.Exponent < 2.01 || fit.Exponent > 2.09 {
		t.Errorf("board fitted n = %.4f, want ~2.0454 (range [2.01, 2.09])", fit.Exponent)
	}
	if r2 < 0.995 {
		t.Errorf("board fit R^2 = %g", r2)
	}
}

func TestRaysPanicsOnBadDistance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Rays with zero distance did not panic")
		}
	}()
	Scenario{LinkDistM: 0}.Rays()
}

func TestKrausHPBW(t *testing.T) {
	// A 9.5 dB horn has roughly a 68 degree beamwidth.
	hpbw := KrausHPBW(9.5) * 180 / math.Pi
	if hpbw < 55 || hpbw > 80 {
		t.Errorf("HPBW(9.5 dB) = %.1f deg, want ~68", hpbw)
	}
	// Higher gain means narrower beam.
	if KrausHPBW(20) >= KrausHPBW(10) {
		t.Error("HPBW must shrink with gain")
	}
}

func TestScenarioDefaults(t *testing.T) {
	sc := Scenario{LinkDistM: 0.1, CopperBoards: true, TXGainDB: 9.5}.Defaults()
	if sc.MaxRoundTrips != 3 || sc.BoardReflLossDB != 3.5 || sc.WaveguideLenM != 0.045 {
		t.Errorf("defaults not applied: %+v", sc)
	}
	if sc.HPBWRad == 0 {
		t.Error("default HPBW not derived from gain")
	}
}

func TestDiagonalScenarioGeometry(t *testing.T) {
	sc := DiagonalScenario(0.1, 0.05, true)
	// cos(rot) = ahead/dist.
	if math.Abs(math.Cos(sc.RotationRad)-0.5) > 1e-12 {
		t.Errorf("rotation = %g rad, want acos(0.5)", sc.RotationRad)
	}
	// Clamps distances below the ahead distance.
	sc = DiagonalScenario(0.01, 0.05, false)
	if sc.LinkDistM != 0.05 || sc.RotationRad != 0 {
		t.Errorf("clamped scenario = %+v", sc)
	}
}

// Property: rays are sorted by delay and the LoS is the shortest.
func TestPropertyRaysSorted(t *testing.T) {
	f := func(rawD float64, copper bool) bool {
		d := 0.03 + math.Mod(math.Abs(rawD), 0.3)
		rays := Scenario{
			LinkDistM: d, CopperBoards: copper,
			TXGainDB: 9.5, RXGainDB: 9.5,
		}.Rays()
		for i := 1; i < len(rays); i++ {
			if rays[i].LengthM < rays[i-1].LengthM {
				return false
			}
		}
		return rays[0].Label == "line of sight"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: pathloss is monotone increasing in distance.
func TestPropertyPathlossMonotone(t *testing.T) {
	pl := NewFreespacePathloss(carrierHz, 0.1)
	f := func(a, b float64) bool {
		d1 := 0.01 + math.Mod(math.Abs(a), 10)
		d2 := d1 + 0.01 + math.Mod(math.Abs(b), 10)
		return pl.LossDB(d2) > pl.LossDB(d1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every echo is below the line of sight for any geometry.
func TestPropertyEchoesBelowLoS(t *testing.T) {
	f := func(rawD float64) bool {
		d := 0.05 + math.Mod(math.Abs(rawD), 0.25)
		return boardScenario(d).WorstEchoRelativeDB(carrierHz) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
