package modem

import (
	"math"
	"testing"
	"testing/quick"
)

// levels returns the constellation's amplitudes in index order.
func levels(c Constellation) []float64 {
	ls := make([]float64, c.Size())
	for i := range ls {
		ls[i] = c.Level(i)
	}
	return ls
}

// sumSquares returns the energy of xs.
func sumSquares(xs []float64) float64 {
	var e float64
	for _, x := range xs {
		e += x * x
	}
	return e
}

func TestASKConstellation(t *testing.T) {
	c := NewASK(4)
	if c.Size() != 4 {
		t.Fatalf("size = %d, want 4", c.Size())
	}
	ls := levels(c)
	// Unit average energy by construction.
	if e := sumSquares(ls) / 4; math.Abs(e-1) > 1e-12 {
		t.Errorf("avg energy = %g, want 1", e)
	}
	// Levels proportional to {-3,-1,1,3}: ratio of extremes is 3.
	if math.Abs(ls[3]/ls[2]-3) > 1e-12 {
		t.Errorf("level ratio = %g, want 3", ls[3]/ls[2])
	}
	// Symmetric.
	if math.Abs(ls[0]+ls[3]) > 1e-15 || math.Abs(ls[1]+ls[2]) > 1e-15 {
		t.Errorf("levels not symmetric: %v", ls)
	}
	// Adjacent levels of unit-energy 4-ASK are 2/sqrt(5) apart.
	for i := 1; i < 4; i++ {
		if d := ls[i] - ls[i-1]; math.Abs(d-2/math.Sqrt(5)) > 1e-12 {
			t.Errorf("level spacing %d = %g, want %g", i, d, 2/math.Sqrt(5))
		}
	}
}

func TestASKPanics(t *testing.T) {
	for _, m := range []int{0, 1, 3, -2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewASK(%d) did not panic", m)
				}
			}()
			NewASK(m)
		}()
	}
}

func TestBinaryASK(t *testing.T) {
	ls := levels(NewASK(2))
	if math.Abs(ls[0]+1) > 1e-12 || math.Abs(ls[1]-1) > 1e-12 {
		t.Errorf("2-ASK levels = %v, want [-1, 1]", ls)
	}
}

func TestRectPulse(t *testing.T) {
	p := NewRect(5)
	if p.OSF() != 5 || p.SpanSymbols() != 1 || len(p.Taps()) != 5 {
		t.Fatalf("rect pulse shape wrong: %+v", p)
	}
	if !p.IsRect() {
		t.Error("IsRect() = false for rect pulse")
	}
	if e := sumSquares(p.Taps()); math.Abs(e-1) > 1e-12 {
		t.Errorf("energy = %g, want 1", e)
	}
}

func TestRampPulse(t *testing.T) {
	p := NewRamp(5, 4)
	taps := p.Taps()
	if p.SpanSymbols() != 4 || len(taps) != 20 {
		t.Fatalf("ramp pulse shape wrong")
	}
	if p.IsRect() {
		t.Error("ramp reported as rect")
	}
	if e := sumSquares(taps); math.Abs(e-1) > 1e-12 {
		t.Errorf("energy = %g, want 1", e)
	}
	// Monotone increasing taps.
	for i := 1; i < len(taps); i++ {
		if taps[i] <= taps[i-1] {
			t.Fatal("ramp taps not increasing")
		}
	}
}

func TestPulsePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"osf0":        func() { NewPulse([]float64{1}, 0) },
		"badMultiple": func() { NewPulse([]float64{1, 2, 3}, 2) },
		"empty":       func() { NewPulse(nil, 2) },
		"zeroEnergy":  func() { NewPulse([]float64{0, 0}, 2) },
		"span0":       func() { NewRamp(5, 0) },
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

func TestModulateSingleSymbol(t *testing.T) {
	p := NewPulse([]float64{1, 2, 3, 4}, 2) // span 2 symbols
	s := p.Modulate([]float64{2})
	want := p.Taps()
	if len(s) != 4 {
		t.Fatalf("waveform length = %d, want 4", len(s))
	}
	for i := range want {
		if math.Abs(s[i]-2*want[i]) > 1e-12 {
			t.Errorf("s[%d] = %g, want %g", i, s[i], 2*want[i])
		}
	}
}

func TestModulateSuperposition(t *testing.T) {
	p := NewRamp(5, 3)
	xs := []float64{1, -0.5, 2, 0, -1}
	s := p.Modulate(xs)
	// Compare against direct per-symbol superposition.
	want := make([]float64, len(s))
	for k, x := range xs {
		for i, h := range p.Taps() {
			want[k*5+i] += x * h
		}
	}
	for i := range want {
		if math.Abs(s[i]-want[i]) > 1e-12 {
			t.Fatalf("modulate mismatch at %d", i)
		}
	}
}

func TestBlockAmplitudesMatchesModulate(t *testing.T) {
	// The trellis branch-output function must agree with the waveform
	// synthesis in steady state.
	p := NewRamp(5, 4)
	xs := []float64{0.5, -1, 1.5, -0.5, 1, 2}
	wave := p.Modulate(xs)
	// Block t=5 (the last symbol, all history available).
	history := []float64{xs[5], xs[4], xs[3], xs[2]}
	block := p.BlockAmplitudes(history, nil)
	for m := 0; m < 5; m++ {
		if math.Abs(block[m]-wave[5*5+m]) > 1e-12 {
			t.Fatalf("block sample %d = %g, waveform = %g", m, block[m], wave[25+m])
		}
	}
}

func TestBlockAmplitudesPanicsOnBadHistory(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad history did not panic")
		}
	}()
	NewRamp(5, 4).BlockAmplitudes([]float64{1}, nil)
}

func TestNoiseSigmaForSNR(t *testing.T) {
	// 0 dB -> sigma 1; 20 dB -> sigma 0.1.
	if s := NoiseSigmaForSNR(0); math.Abs(s-1) > 1e-12 {
		t.Errorf("sigma(0 dB) = %g", s)
	}
	if s := NoiseSigmaForSNR(20); math.Abs(s-0.1) > 1e-12 {
		t.Errorf("sigma(20 dB) = %g", s)
	}
}

// Property: any constellation built by NewASK has unit average energy and
// symmetric levels.
func TestPropertyASKNormalised(t *testing.T) {
	f := func(raw uint8) bool {
		m := 2 * (int(raw)%8 + 1) // 2..16, even
		ls := levels(NewASK(m))
		if math.Abs(sumSquares(ls)/float64(m)-1) > 1e-9 {
			return false
		}
		for i := range ls {
			if math.Abs(ls[i]+ls[len(ls)-1-i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: modulation is linear in the symbols.
func TestPropertyModulateLinear(t *testing.T) {
	p := NewRamp(3, 2)
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 1e6 || math.Abs(b) > 1e6 {
			return true
		}
		s1 := p.Modulate([]float64{a, 0, b})
		s2 := p.Modulate([]float64{a, 0, 0})
		s3 := p.Modulate([]float64{0, 0, b})
		for i := range s1 {
			if math.Abs(s1[i]-s2[i]-s3[i]) > 1e-9*(1+math.Abs(s1[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: pulses are always unit energy after construction.
func TestPropertyPulseUnitEnergy(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		taps := make([]float64, 0, len(raw))
		var energy float64
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				v = 1
			}
			taps = append(taps, v)
			energy += v * v
		}
		if energy == 0 {
			return true
		}
		p := NewPulse(taps, len(taps))
		return math.Abs(sumSquares(p.Taps())-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
