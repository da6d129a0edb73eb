package linkbudget

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTableIValues(t *testing.T) {
	b := TableI()
	if b.RXNoiseFigureDB != 10 || b.RXTempK != 323 ||
		b.TXArrayGainDB != 12 || b.ButlerInaccuracyDB != 5 ||
		b.PolarizationMismatchDB != 3 || b.ImplementationLossDB != 5 {
		t.Errorf("Table I constants wrong: %+v", b)
	}
	if b.Pathloss.Exponent != 2 {
		t.Errorf("pathloss exponent = %g, want 2", b.Pathloss.Exponent)
	}
	// Table I pathloss rows: 59.8 dB at 0.1 m, 69.3 dB at 0.3 m.
	if got := b.Pathloss.LossDB(0.1); math.Abs(got-59.8) > 0.05 {
		t.Errorf("PL(0.1) = %.2f, want 59.8", got)
	}
	if got := b.Pathloss.LossDB(0.3); math.Abs(got-69.3) > 0.05 {
		t.Errorf("PL(0.3) = %.2f, want 69.3", got)
	}
}

func TestNoiseFloor(t *testing.T) {
	b := TableI()
	// kTB at 323 K over 25 GHz: about -69.5 dBm.
	if got := b.NoiseFloorDBm(); math.Abs(got+69.5) > 0.1 {
		t.Errorf("noise floor = %.2f dBm, want ~-69.5", got)
	}
	if got := b.EffectiveNoiseDBm(); math.Abs(got+59.5) > 0.1 {
		t.Errorf("effective noise = %.2f dBm, want ~-59.5", got)
	}
}

func TestRequiredTxPowerShortestLink(t *testing.T) {
	// Hand-computed from Table I: PTX = SNR - 69.5 + 10 + 59.8 - 24 + 8
	//                                  = SNR - 15.7 dBm.
	b := TableI()
	got := b.RequiredTxPowerDBm(0.1, 0, false)
	if math.Abs(got+15.7) > 0.2 {
		t.Errorf("PTX(SNR=0, shortest) = %.2f dBm, want ~-15.7", got)
	}
	got = b.RequiredTxPowerDBm(0.1, 35, false)
	if math.Abs(got-19.3) > 0.2 {
		t.Errorf("PTX(SNR=35, shortest) = %.2f dBm, want ~19.3", got)
	}
}

func TestRequiredTxPowerLongestLink(t *testing.T) {
	b := TableI()
	// Longest link: 9.5 dB more pathloss than the shortest.
	diff := b.RequiredTxPowerDBm(0.3, 10, false) - b.RequiredTxPowerDBm(0.1, 10, false)
	if math.Abs(diff-9.54) > 0.05 {
		t.Errorf("longest-shortest gap = %.2f dB, want 9.54", diff)
	}
	// Butler mismatch adds exactly 5 dB.
	bd := b.RequiredTxPowerDBm(0.3, 10, true) - b.RequiredTxPowerDBm(0.3, 10, false)
	if math.Abs(bd-5) > 1e-9 {
		t.Errorf("butler penalty = %.2f dB, want 5", bd)
	}
}

func TestFig4CurveShape(t *testing.T) {
	b := TableI()
	pts := b.Fig4Curve(0, 35, 36)
	if len(pts) != 36 {
		t.Fatalf("points = %d, want 36", len(pts))
	}
	// Curves increase 1 dB per dB of SNR and keep their ordering:
	// shortest < longest < longest+butler.
	for i, p := range pts {
		if p.ShortestDBm >= p.LongestDBm || p.LongestDBm >= p.LongestButlerDBm {
			t.Fatalf("curve ordering violated at SNR=%g", p.SNRdB)
		}
		if i > 0 {
			slope := p.ShortestDBm - pts[i-1].ShortestDBm
			if math.Abs(slope-1) > 1e-9 {
				t.Fatalf("slope = %g dB/dB, want 1", slope)
			}
		}
	}
	// Fig. 4 end points: shortest link spans about -15.7..19.3 dBm, the
	// Butler-matrix worst case tops out near 34 dBm.
	if math.Abs(pts[0].ShortestDBm+15.7) > 0.3 {
		t.Errorf("curve start = %.2f dBm, want ~-15.7", pts[0].ShortestDBm)
	}
	last := pts[len(pts)-1]
	if math.Abs(last.LongestButlerDBm-33.8) > 0.5 {
		t.Errorf("butler curve end = %.2f dBm, want ~33.8", last.LongestButlerDBm)
	}
}

func TestReceivedSNRInverts(t *testing.T) {
	b := TableI()
	for _, snr := range []float64{0, 10, 25} {
		p := b.RequiredTxPowerDBm(0.2, snr, true)
		if got := b.ReceivedSNRdB(0.2, p, true); math.Abs(got-snr) > 1e-9 {
			t.Errorf("ReceivedSNR(RequiredTx(%g)) = %g", snr, got)
		}
	}
}

func TestShannonRateSupports100G(t *testing.T) {
	b := TableI()
	// 2 bit/s/Hz per polarisation requires SNR = 3 (4.77 dB).
	snr := b.SNRFor100GbpsDB()
	if math.Abs(snr-4.77) > 0.01 {
		t.Errorf("SNR for 100G = %.2f dB, want 4.77", snr)
	}
	rate := b.ShannonRateBps(snr)
	if math.Abs(rate-100e9) > 1e6 {
		t.Errorf("rate at that SNR = %g, want 100e9", rate)
	}
	// More SNR, more rate.
	if b.ShannonRateBps(10) <= rate {
		t.Error("Shannon rate not increasing in SNR")
	}
}

func TestTableRowsAndString(t *testing.T) {
	b := TableI()
	rows := b.TableRows()
	if len(rows) != 9 {
		t.Fatalf("Table I rows = %d, want 9", len(rows))
	}
	s := b.String()
	for _, want := range []string{"RX noise figure", "Butler matrix inaccuracy", "RX temperature", "59.8", "69.3"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

// Property: required power is monotone in SNR, distance and losses.
func TestPropertyRequiredPowerMonotone(t *testing.T) {
	b := TableI()
	f := func(rawSNR, rawD float64) bool {
		snr := math.Mod(math.Abs(rawSNR), 40)
		d := 0.05 + math.Mod(math.Abs(rawD), 0.25)
		base := b.RequiredTxPowerDBm(d, snr, false)
		return b.RequiredTxPowerDBm(d, snr+1, false) > base &&
			b.RequiredTxPowerDBm(d*1.5, snr, false) > base &&
			b.RequiredTxPowerDBm(d, snr, true) > base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
