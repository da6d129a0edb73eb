package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestDBRoundTrip(t *testing.T) {
	for _, ratio := range []float64{1e-9, 0.5, 1, 2, 10, 1e6} {
		if got := FromDB(DB(ratio)); !almostEqual(got, ratio, 1e-12*ratio) {
			t.Errorf("FromDB(DB(%g)) = %g, want %g", ratio, got, ratio)
		}
	}
}

func TestDBKnownValues(t *testing.T) {
	cases := []struct {
		ratio, db float64
	}{
		{1, 0},
		{10, 10},
		{100, 20},
		{0.1, -10},
		{2, 3.0103},
	}
	for _, c := range cases {
		if got := DB(c.ratio); !almostEqual(got, c.db, 1e-3) {
			t.Errorf("DB(%g) = %g, want %g", c.ratio, got, c.db)
		}
	}
}

func TestDBZeroIsNegInf(t *testing.T) {
	if got := DB(0); !math.IsInf(got, -1) {
		t.Errorf("DB(0) = %g, want -Inf", got)
	}
}

func TestDBmKnownValues(t *testing.T) {
	if got := DBm(1e-3); !almostEqual(got, 0, 1e-12) {
		t.Errorf("DBm(1 mW) = %g, want 0", got)
	}
	if got := DBm(1); !almostEqual(got, 30, 1e-12) {
		t.Errorf("DBm(1 W) = %g, want 30", got)
	}
	if got := FromDBm(30); !almostEqual(got, 1, 1e-12) {
		t.Errorf("FromDBm(30) = %g, want 1 W", got)
	}
}

func TestThermalNoiseFloor(t *testing.T) {
	// Classic sanity value: kTB at 290 K in 1 Hz = -174 dBm/Hz.
	got := ThermalNoiseDBm(290, 1)
	if !almostEqual(got, -173.98, 0.05) {
		t.Errorf("noise floor at 290 K / 1 Hz = %g dBm, want ~-174", got)
	}
	// Paper's receiver: 323 K, 25 GHz bandwidth -> about -65.5 dBm.
	got = ThermalNoiseDBm(323, 25*GHz)
	if !almostEqual(got, -69.5, 1.0) {
		t.Errorf("noise floor at 323 K / 25 GHz = %g dBm, want ~-69.5", got)
	}
}

func TestEbN0Conversions(t *testing.T) {
	// Rate 2 bit/s/Hz: Eb/N0 = SNR - 3.01 dB.
	if got := EbN0FromSNR(6.0103, 2); !almostEqual(got, 3.0, 1e-3) {
		t.Errorf("EbN0FromSNR(6.01, 2) = %g, want ~3", got)
	}
}

func TestEbN0PanicsOnNonPositiveRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EbN0FromSNR with rate 0 did not panic")
		}
	}()
	EbN0FromSNR(3, 0)
}

func TestFormatHz(t *testing.T) {
	cases := []struct {
		f    float64
		want string
	}{
		{232.5 * GHz, "232.5 GHz"},
		{25 * GHz, "25 GHz"},
		{1.5 * THz, "1.5 THz"},
		{100 * MHz, "100 MHz"},
		{10 * KHz, "10 kHz"},
		{5, "5 Hz"},
	}
	for _, c := range cases {
		if got := FormatHz(c.f); got != c.want {
			t.Errorf("FormatHz(%g) = %q, want %q", c.f, got, c.want)
		}
	}
}

func TestFormatDBAndDBm(t *testing.T) {
	if got := FormatDB(59.8); got != "59.80 dB" {
		t.Errorf("FormatDB = %q", got)
	}
	if got := FormatDBm(-15.7); !strings.HasSuffix(got, "dBm") {
		t.Errorf("FormatDBm = %q, want dBm suffix", got)
	}
}

// Property: DB and FromDB are inverse bijections on positive ratios.
func TestPropertyDBInverse(t *testing.T) {
	f := func(x float64) bool {
		ratio := math.Abs(x)
		if ratio == 0 || math.IsInf(ratio, 0) || math.IsNaN(ratio) {
			return true
		}
		rt := FromDB(DB(ratio))
		return almostEqual(rt, ratio, 1e-9*ratio)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: DB of a product is the sum of DBs (decibels are logarithmic).
func TestPropertyDBAdditive(t *testing.T) {
	f := func(a, b float64) bool {
		x, y := math.Abs(a)+1e-6, math.Abs(b)+1e-6
		if math.IsInf(x, 0) || math.IsInf(y, 0) || math.IsInf(x*y, 0) {
			return true
		}
		return almostEqual(DB(x*y), DB(x)+DB(y), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: thermal noise is linear in bandwidth.
func TestPropertyNoiseLinearInBandwidth(t *testing.T) {
	f := func(bw float64) bool {
		b := math.Mod(math.Abs(bw), 1e12) + 1
		n1 := ThermalNoiseW(300, b)
		n2 := ThermalNoiseW(300, 2*b)
		return almostEqual(n2, 2*n1, 1e-12*n2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
