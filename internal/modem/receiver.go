package modem

import "math"

// NoiseSigmaForSNR returns the per-sample noise standard deviation that
// realises the given matched-filter SNR (dB) for a unit-energy pulse and
// unit-average-energy constellation.
//
// With pulse energy 1 spread over the symbol period, a full-resolution
// matched filter collects signal energy E[x^2] = 1 against noise variance
// sigma^2, so SNR = 1/sigma^2 regardless of the oversampling factor.
func NoiseSigmaForSNR(snrDB float64) float64 {
	return 1 / math.Sqrt(math.Pow(10, snrDB/10))
}
