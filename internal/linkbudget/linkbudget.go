// Package linkbudget implements the board-to-board link budget of the
// paper's Sec. II-B: Table I's parameter set and the required-transmit-
// power-versus-SNR curves of Fig. 4.
//
// The budget composes the thermal noise floor kTB at the receiver
// temperature, the receiver noise figure, the log-distance pathloss of
// the measured channel model, the antenna array gains, and the fixed
// loss terms (Butler-matrix inaccuracy, polarisation mismatch,
// implementation loss).
package linkbudget

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/channel"
	"repro/internal/units"
)

// Budget holds the link-budget parameters. TableI returns the paper's
// values; individual fields may be overridden before use.
type Budget struct {
	// FreqHz is the carrier frequency (232.5 GHz, band centre).
	FreqHz float64
	// BandwidthHz is the signal bandwidth (25 GHz for 100 Gbit/s with
	// dual polarisation).
	BandwidthHz float64
	// RXNoiseFigureDB is the receiver noise figure (10 dB).
	RXNoiseFigureDB float64
	// RXTempK is the receiver temperature (323 K).
	RXTempK float64
	// TXArrayGainDB, RXArrayGainDB are the antenna array gains
	// (12 dB each for 4x4 arrays).
	TXArrayGainDB, RXArrayGainDB float64
	// ButlerInaccuracyDB is the fixed-beam direction-mismatch penalty of
	// the Butler-matrix realisation (5 dB); applied only to links flagged
	// as Butler-served worst cases.
	ButlerInaccuracyDB float64
	// PolarizationMismatchDB is the dual-polarisation cross-talk penalty
	// (3 dB).
	PolarizationMismatchDB float64
	// ImplementationLossDB covers filters, synchronisation and other
	// real-world hardware impairments (5 dB).
	ImplementationLossDB float64
	// Pathloss is the propagation model (measured: n = 2 at 232.5 GHz).
	Pathloss channel.Pathloss
	// ShortestLinkM, LongestLinkM are the extreme node-to-node distances:
	// the ahead link (100 mm) and the diagonal link (300 mm).
	ShortestLinkM, LongestLinkM float64
}

// TableI returns the paper's link-budget parameters (Table I).
func TableI() Budget {
	const freq = 232.5e9
	return Budget{
		FreqHz:                 freq,
		BandwidthHz:            25e9,
		RXNoiseFigureDB:        10,
		RXTempK:                323,
		TXArrayGainDB:          12,
		RXArrayGainDB:          12,
		ButlerInaccuracyDB:     5,
		PolarizationMismatchDB: 3,
		ImplementationLossDB:   5,
		Pathloss:               channel.NewFreespacePathloss(freq, 0.1),
		ShortestLinkM:          0.1,
		LongestLinkM:           0.3,
	}
}

// NoiseFloorDBm returns the thermal noise power kTB in dBm at the
// receiver temperature and bandwidth.
func (b Budget) NoiseFloorDBm() float64 {
	return units.ThermalNoiseDBm(b.RXTempK, b.BandwidthHz)
}

// EffectiveNoiseDBm returns the receiver's effective noise level:
// kTB plus the noise figure.
func (b Budget) EffectiveNoiseDBm() float64 {
	return b.NoiseFloorDBm() + b.RXNoiseFigureDB
}

// FixedLossesDB returns the loss terms applied to every link:
// polarisation mismatch plus implementation loss. The Butler term is
// handled separately because only worst-case directions suffer it.
func (b Budget) FixedLossesDB() float64 {
	return b.PolarizationMismatchDB + b.ImplementationLossDB
}

// RequiredTxPowerDBm returns the transmit power needed to reach the
// target SNR at the receiver over distance distM. butler adds the
// Butler-matrix direction-mismatch penalty (the paper assumes only
// worst-case links suffer it). This is the quantity plotted in Fig. 4.
func (b Budget) RequiredTxPowerDBm(distM, targetSNRdB float64, butler bool) float64 {
	p := targetSNRdB +
		b.EffectiveNoiseDBm() +
		b.Pathloss.LossDB(distM) -
		b.TXArrayGainDB - b.RXArrayGainDB +
		b.FixedLossesDB()
	if butler {
		p += b.ButlerInaccuracyDB
	}
	return p
}

// ReceivedSNRdB inverts RequiredTxPowerDBm: the SNR achieved at the
// receiver for a given transmit power.
func (b Budget) ReceivedSNRdB(distM, txPowerDBm float64, butler bool) float64 {
	return txPowerDBm - b.RequiredTxPowerDBm(distM, 0, butler)
}

// ShannonRateBps returns the Shannon capacity of the link in bit/s for
// the given received SNR (dB), counting both polarisations.
func (b Budget) ShannonRateBps(snrDB float64) float64 {
	snr := units.FromDB(snrDB)
	perPol := b.BandwidthHz * math.Log2(1+snr)
	return 2 * perPol
}

// SNRFor100GbpsDB returns the per-polarisation SNR (dB) needed to carry
// 100 Gbit/s in the configured bandwidth with dual polarisation, i.e.
// 2 bit/s/Hz per polarisation at 25 GHz.
func (b Budget) SNRFor100GbpsDB() float64 {
	perPolRate := 100e9 / 2 / b.BandwidthHz // bit/s/Hz
	return units.DB(math.Pow(2, perPolRate) - 1)
}

// Row is one line of the Table I report.
type Row struct {
	Name  string
	Unit  string
	Value float64
}

// TableRows reproduces Table I as data, in the paper's row order.
func (b Budget) TableRows() []Row {
	return []Row{
		{"RX noise figure", "dB", b.RXNoiseFigureDB},
		{"Path loss exponent", "-", b.Pathloss.Exponent},
		{fmt.Sprintf("Path loss for shortest link %gm (%.1f GHz)", b.ShortestLinkM, b.FreqHz/1e9), "dB", b.Pathloss.LossDB(b.ShortestLinkM)},
		{fmt.Sprintf("Path loss for largest link %gm (%.1f GHz)", b.LongestLinkM, b.FreqHz/1e9), "dB", b.Pathloss.LossDB(b.LongestLinkM)},
		{"Array gain", "dB", b.TXArrayGainDB},
		{"Butler matrix inaccuracy", "dB", b.ButlerInaccuracyDB},
		{"Polarization mismatch", "dB", b.PolarizationMismatchDB},
		{"Implementation loss", "dB", b.ImplementationLossDB},
		{"RX temperature", "K", b.RXTempK},
	}
}

// String renders the Table I report.
func (b Budget) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-48s %-5s %8s\n", "Link budget parameter", "Unit", "Value")
	for _, r := range b.TableRows() {
		fmt.Fprintf(&sb, "%-48s %-5s %8.1f\n", r.Name, r.Unit, r.Value)
	}
	return sb.String()
}

// Fig4Point is one sample of the required-transmit-power curves.
type Fig4Point struct {
	SNRdB                float64
	ShortestDBm          float64 // 100 mm ahead link
	LongestDBm           float64 // 300 mm diagonal link
	LongestButlerDBm     float64 // 300 mm with Butler mismatch
	ShortestWattsMilli   float64
	LongestButlerWattsMW float64
}

// Fig4Curve samples the three curves of Fig. 4 over [snrLo, snrHi] dB.
func (b Budget) Fig4Curve(snrLo, snrHi float64, n int) []Fig4Point {
	if n < 2 {
		n = 2
	}
	out := make([]Fig4Point, n)
	for i := range out {
		snr := snrLo + (snrHi-snrLo)*float64(i)/float64(n-1)
		s := b.RequiredTxPowerDBm(b.ShortestLinkM, snr, false)
		l := b.RequiredTxPowerDBm(b.LongestLinkM, snr, false)
		lb := b.RequiredTxPowerDBm(b.LongestLinkM, snr, true)
		out[i] = Fig4Point{
			SNRdB:                snr,
			ShortestDBm:          s,
			LongestDBm:           l,
			LongestButlerDBm:     lb,
			ShortestWattsMilli:   units.FromDBm(s) * 1e3,
			LongestButlerWattsMW: units.FromDBm(lb) * 1e3,
		}
	}
	return out
}
