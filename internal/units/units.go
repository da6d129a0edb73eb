// Package units provides the physical units, constants and conversions
// used throughout the wireless-interconnect library: decibel/linear
// power conversions, power in dBm, thermal noise floors, SNR to Eb/N0,
// frequency multiples and the formatting of Hz, dB and dBm values.
//
// All conversions are pure functions over float64; quantities carry their
// unit in the name (FreqHz, PowerDBm) rather than in a wrapper type, which
// keeps the numeric kernels allocation-free. The constants follow the
// paper's Table I operating point: 200+ GHz carriers, dBm link budgets
// and thermal noise at room temperature.
package units

import (
	"fmt"
	"math"
)

// Physical constants (SI).
const (
	// Boltzmann is the Boltzmann constant, J/K.
	Boltzmann = 1.380_649e-23
	// MilliwattInWatts is one milliwatt expressed in watts.
	MilliwattInWatts = 1e-3
)

// DB converts a linear power ratio to decibels.
// DB(0) returns -Inf, matching the mathematical limit.
func DB(ratio float64) float64 {
	return 10 * math.Log10(ratio)
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 {
	return math.Pow(10, db/10)
}

// DBm converts a power in watts to dBm.
func DBm(watts float64) float64 {
	return 10 * math.Log10(watts/MilliwattInWatts)
}

// FromDBm converts a power in dBm to watts.
func FromDBm(dbm float64) float64 {
	return MilliwattInWatts * math.Pow(10, dbm/10)
}

// ThermalNoiseW returns the thermal noise power kTB in watts for a
// receiver temperature in kelvin and bandwidth in hertz.
func ThermalNoiseW(tempK, bandwidthHz float64) float64 {
	return Boltzmann * tempK * bandwidthHz
}

// ThermalNoiseDBm returns the thermal noise floor kTB in dBm.
func ThermalNoiseDBm(tempK, bandwidthHz float64) float64 {
	return DBm(ThermalNoiseW(tempK, bandwidthHz))
}

// EbN0FromSNR converts a signal-to-noise ratio (dB) measured in the
// occupied bandwidth to Eb/N0 (dB) for a spectral efficiency of
// rate bits/s/Hz: Eb/N0 = SNR - 10 log10(rate).
func EbN0FromSNR(snrDB, rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("units: non-positive spectral efficiency %g", rate))
	}
	return snrDB - DB(rate)
}

// Frequency helpers for readable experiment parameter tables.
const (
	Hz  = 1.0
	KHz = 1e3
	MHz = 1e6
	GHz = 1e9
	THz = 1e12
)

// FormatHz renders a frequency with an engineering suffix (Hz, kHz, MHz,
// GHz, THz) using three significant digits, e.g. "232.5 GHz".
func FormatHz(freqHz float64) string {
	abs := math.Abs(freqHz)
	switch {
	case abs >= THz:
		return fmt.Sprintf("%.4g THz", freqHz/THz)
	case abs >= GHz:
		return fmt.Sprintf("%.4g GHz", freqHz/GHz)
	case abs >= MHz:
		return fmt.Sprintf("%.4g MHz", freqHz/MHz)
	case abs >= KHz:
		return fmt.Sprintf("%.4g kHz", freqHz/KHz)
	default:
		return fmt.Sprintf("%.4g Hz", freqHz)
	}
}

// FormatDB renders a decibel value with two decimals, e.g. "59.80 dB".
func FormatDB(db float64) string { return fmt.Sprintf("%.2f dB", db) }

// FormatDBm renders a dBm value with two decimals, e.g. "-15.70 dBm".
func FormatDBm(dbm float64) string { return fmt.Sprintf("%.2f dBm", dbm) }
