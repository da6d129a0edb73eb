package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQFuncKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.158655},
		{2, 0.0227501},
		{3, 0.00134990},
		{-1, 0.841345},
	}
	for _, c := range cases {
		if got := QFunc(c.x); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("Q(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestLogQMatchesDirectAndTail(t *testing.T) {
	for _, x := range []float64{-3, 0, 1, 5, 10} {
		want := math.Log(QFunc(x))
		if got := LogQ(x); math.Abs(got-want) > 1e-9 {
			t.Errorf("LogQ(%g) = %g, want %g", x, got, want)
		}
	}
	// Far tail: Q(40) underflows; LogQ must stay finite and negative.
	lq := LogQ(40)
	if math.IsInf(lq, 0) || math.IsNaN(lq) {
		t.Fatalf("LogQ(40) = %g, want finite", lq)
	}
	// Q(40) ~ phi(40)/40 -> log ~ -0.5*1600 - log(40) - 0.5 log(2pi).
	want := -0.5*1600 - math.Log(40) - 0.5*math.Log(2*math.Pi)
	if math.Abs(lq-want) > 0.01 {
		t.Errorf("LogQ(40) = %g, want ~%g", lq, want)
	}
}

func TestCoordinateAscent(t *testing.T) {
	f := func(x []float64) float64 {
		return -((x[0]-0.3)*(x[0]-0.3) + (x[1]-0.6)*(x[1]-0.6))
	}
	x, _ := CoordinateAscent(f, []float64{0, 0}, CoordinateAscentOptions{Sweeps: 60, MinStep: 1e-6})
	if math.Abs(x[0]-0.3) > 1e-3 || math.Abs(x[1]-0.6) > 1e-3 {
		t.Errorf("CoordinateAscent = %v, want (0.3, 0.6)", x)
	}
}

func TestCoordinateAscentRespectsClamp(t *testing.T) {
	f := func(x []float64) float64 { return x[0] } // unbounded upward
	x, _ := CoordinateAscent(f, []float64{0}, CoordinateAscentOptions{
		Sweeps: 50, Lo: -1, Hi: 1,
	})
	if x[0] > 1+1e-12 {
		t.Errorf("CoordinateAscent exceeded clamp: %g", x[0])
	}
}

func TestGaussHermiteIntegratesPolynomials(t *testing.T) {
	gh := NewGaussHermite(20)
	// E[Z^2] = sigma^2 for N(0, sigma).
	got := gh.ExpectGaussian(func(x float64) float64 { return x * x }, 0, 3)
	if math.Abs(got-9) > 1e-9 {
		t.Errorf("E[Z^2] = %g, want 9", got)
	}
	// E[Z^4] = 3 sigma^4.
	got = gh.ExpectGaussian(func(x float64) float64 { return x * x * x * x }, 0, 1)
	if math.Abs(got-3) > 1e-9 {
		t.Errorf("E[Z^4] = %g, want 3", got)
	}
	// Shifted mean: E[Z] = mu.
	got = gh.ExpectGaussian(func(x float64) float64 { return x }, 2.5, 1)
	if math.Abs(got-2.5) > 1e-9 {
		t.Errorf("E[Z] = %g, want 2.5", got)
	}
}

func TestGaussHermiteWeightsSumToSqrtPi(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 33} {
		gh := NewGaussHermite(n)
		var sum float64
		for _, w := range gh.Weights {
			sum += w
		}
		if math.Abs(sum-math.Sqrt(math.Pi)) > 1e-9 {
			t.Errorf("order %d: weight sum = %g, want sqrt(pi)", n, sum)
		}
	}
}

func TestGaussHermitePanicsOnZeroOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGaussHermite(0) did not panic")
		}
	}()
	NewGaussHermite(0)
}

// Property: Q(x) + Q(-x) = 1 (symmetry of the Gaussian).
func TestPropertyQSymmetry(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.Abs(x) > 35 {
			return true
		}
		return math.Abs(QFunc(x)+QFunc(-x)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
