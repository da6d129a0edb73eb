// Package dsp provides the signal-processing kernels for the wireless
// interconnect library: complex FFTs of arbitrary length (radix-2 plus
// Bluestein's algorithm), window functions and ArgMax.
//
// The VNA module uses the inverse FFT with windowing to turn synthetic
// 220-245 GHz frequency sweeps into impulse responses (paper Figs. 2-3)
// and ArgMax to find their peaks.
package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// FFT returns the discrete Fourier transform of x:
//
//	X[k] = sum_n x[n] exp(-2*pi*i*k*n/N).
//
// Any length is supported: powers of two use an in-place radix-2
// Cooley-Tukey transform, other lengths use Bluestein's chirp-z algorithm.
// The input is not modified.
func FFT(x []complex128) []complex128 {
	n := len(x)
	out := append([]complex128(nil), x...)
	if n <= 1 {
		return out
	}
	if n&(n-1) == 0 {
		fftRadix2(out, false)
		return out
	}
	return bluestein(out, false)
}

// IFFT returns the inverse DFT of x with 1/N normalisation.
func IFFT(x []complex128) []complex128 {
	n := len(x)
	out := append([]complex128(nil), x...)
	if n <= 1 {
		return out
	}
	if n&(n-1) == 0 {
		fftRadix2(out, true)
	} else {
		out = bluestein(out, true)
	}
	scale := complex(1/float64(n), 0)
	for i := range out {
		out[i] *= scale
	}
	return out
}

// fftRadix2 performs an in-place iterative radix-2 FFT. inverse selects
// the conjugated twiddles (without the 1/N scale).
func fftRadix2(a []complex128, inverse bool) {
	n := len(a)
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 1; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		ang := -2 * math.Pi / float64(size)
		if inverse {
			ang = -ang
		}
		wStep := cmplx.Exp(complex(0, ang))
		half := size / 2
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				u := a[start+k]
				v := a[start+k+half] * w
				a[start+k] = u + v
				a[start+k+half] = u - v
				w *= wStep
			}
		}
	}
}

// bluestein computes an arbitrary-length DFT via the chirp-z transform,
// reducing it to a power-of-two cyclic convolution.
func bluestein(x []complex128, inverse bool) []complex128 {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Chirp factors w[k] = exp(sign*i*pi*k^2/n).
	w := make([]complex128, n)
	for k := 0; k < n; k++ {
		// Use int64 to avoid overflow of k*k mod 2n for large n.
		kk := int64(k) * int64(k) % int64(2*n)
		w[k] = cmplx.Exp(complex(0, sign*math.Pi*float64(kk)/float64(n)))
	}
	// Convolution length: next power of two >= 2n-1.
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * w[k]
		b[k] = cmplx.Conj(w[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(w[k])
	}
	fftRadix2(a, false)
	fftRadix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	fftRadix2(a, true)
	scale := complex(1/float64(m), 0)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		out[k] = a[k] * scale * w[k]
	}
	return out
}
