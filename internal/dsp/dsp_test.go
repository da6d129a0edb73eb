package dsp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func complexClose(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

// naiveDFT is the O(n^2) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for i := 0; i < n; i++ {
			ang := -2 * math.Pi * float64(k) * float64(i) / float64(n)
			sum += x[i] * cmplx.Exp(complex(0, ang))
		}
		out[k] = sum
	}
	return out
}

func rampSignal(n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(float64(i%7)-3, float64((i*i)%5)-2)
	}
	return x
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 12, 16, 17, 30, 64, 100} {
		x := rampSignal(n)
		got := FFT(x)
		want := naiveDFT(x)
		for k := range want {
			if !complexClose(got[k], want[k], 1e-8*float64(n)) {
				t.Fatalf("n=%d: FFT[%d] = %v, want %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16, 33, 128, 4096} {
		x := rampSignal(n)
		rt := IFFT(FFT(x))
		for i := range x {
			if !complexClose(rt[i], x[i], 1e-8*float64(n)) {
				t.Fatalf("n=%d: IFFT(FFT(x))[%d] = %v, want %v", n, i, rt[i], x[i])
			}
		}
	}
}

func TestFFTDoesNotModifyInput(t *testing.T) {
	x := rampSignal(16)
	orig := append([]complex128(nil), x...)
	FFT(x)
	IFFT(x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatal("FFT/IFFT modified the input slice")
		}
	}
}

func TestFFTImpulseIsFlat(t *testing.T) {
	x := make([]complex128, 64)
	x[0] = 1
	X := FFT(x)
	for k, v := range X {
		if !complexClose(v, 1, 1e-10) {
			t.Fatalf("FFT of impulse not flat at bin %d: %v", k, v)
		}
	}
}

func TestFFTSingleToneLandsInOneBin(t *testing.T) {
	const n, bin = 256, 19
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * bin * float64(i) / n
		x[i] = cmplx.Exp(complex(0, ang))
	}
	X := FFT(x)
	for k := range X {
		want := complex(0, 0)
		if k == bin {
			want = complex(n, 0)
		}
		if !complexClose(X[k], want, 1e-7) {
			t.Fatalf("tone leakage at bin %d: %v", k, X[k])
		}
	}
}

// Property: Parseval's theorem, sum|x|^2 = (1/N) sum|X|^2.
func TestPropertyParseval(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 200 {
			return true
		}
		x := make([]complex128, len(raw))
		var tx float64
		for i, v := range raw {
			v = math.Mod(v, 1e3)
			if math.IsNaN(v) {
				v = 0
			}
			x[i] = complex(v, 0)
			tx += v * v
		}
		X := FFT(x)
		var fx float64
		for _, v := range X {
			fx += real(v)*real(v) + imag(v)*imag(v)
		}
		fx /= float64(len(x))
		return math.Abs(tx-fx) <= 1e-6*(1+tx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: FFT is linear.
func TestPropertyFFTLinearity(t *testing.T) {
	f := func(seed uint8) bool {
		n := int(seed)%60 + 4
		a, b := rampSignal(n), make([]complex128, n)
		for i := range b {
			b[i] = complex(float64((i*3)%11)-5, float64(i%4))
		}
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = 2*a[i] + 3*b[i]
		}
		fa, fb, fs := FFT(a), FFT(b), FFT(sum)
		for i := range fs {
			if !complexClose(fs[i], 2*fa[i]+3*fb[i], 1e-7*float64(n)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestWindowCoefficients(t *testing.T) {
	hann := Hann.Coefficients(5)
	want := []float64{0, 0.5, 1, 0.5, 0}
	for i := range want {
		if math.Abs(hann[i]-want[i]) > 1e-12 {
			t.Errorf("hann[%d] = %g, want %g", i, hann[i], want[i])
		}
	}
	rect := Rectangular.Coefficients(4)
	for _, v := range rect {
		if v != 1 {
			t.Error("rectangular window must be all ones")
		}
	}
	// Hamming endpoints are 0.08; Blackman endpoints ~0.
	if h := Hamming.Coefficients(11); math.Abs(h[0]-0.08) > 1e-12 {
		t.Errorf("hamming[0] = %g, want 0.08", h[0])
	}
	if bl := Blackman.Coefficients(11); math.Abs(bl[0]) > 1e-12 {
		t.Errorf("blackman[0] = %g, want ~0", bl[0])
	}
}

func TestWindowSingleSample(t *testing.T) {
	for _, w := range []Window{Rectangular, Hann, Hamming, Blackman} {
		if c := w.Coefficients(1); len(c) != 1 || c[0] != 1 {
			t.Errorf("%v.Coefficients(1) = %v, want [1]", w, c)
		}
	}
}

func TestWindowPanicsOnNonPositiveLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Coefficients(0) did not panic")
		}
	}()
	Hann.Coefficients(0)
}

func TestWindowCoherentGain(t *testing.T) {
	// Rectangular coherent gain is exactly 1; Hann approaches 0.5.
	if g := Rectangular.CoherentGain(64); math.Abs(g-1) > 1e-12 {
		t.Errorf("rect gain = %g", g)
	}
	if g := Hann.CoherentGain(4096); math.Abs(g-0.5) > 1e-3 {
		t.Errorf("hann gain = %g, want ~0.5", g)
	}
}

func TestWindowStrings(t *testing.T) {
	if Rectangular.String() != "rectangular" || Hann.String() != "hann" ||
		Hamming.String() != "hamming" || Blackman.String() != "blackman" {
		t.Error("window String() values wrong")
	}
	if Window(99).String() != "unknown" {
		t.Error("unknown window String() wrong")
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float64{1, -5, 3}) != 2 {
		t.Error("ArgMax wrong")
	}
	if ArgMax(nil) != -1 {
		t.Error("empty-input convention violated")
	}
}

func BenchmarkFFT4096(b *testing.B) {
	x := rampSignal(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFTBluestein4095(b *testing.B) {
	x := rampSignal(4095)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}
