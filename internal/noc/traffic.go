package noc

import "fmt"

// TrafficPattern assigns each ordered module pair a share of the source
// module's injected traffic. Shares are non-negative, and a source's
// shares over all destinations sum to 1, except for a source that sends
// nothing: its shares are all 0 and it is silent (a lone module, or the
// middle module of an odd-sized bit-complement, which is its own
// complement).
type TrafficPattern interface {
	// Share returns the fraction of src's traffic addressed to dst
	// (0 for dst == src). It is the pattern's definition.
	Share(src, dst, numModules int) float64
	// Row writes src's whole share row, dst[d] = Share(src, d,
	// len(dst)) for every d, bit for bit; it panics wherever one of
	// those Share calls would. Callers that need every destination of
	// a source use it in place of len(dst) Share calls.
	Row(src int, dst []float64)
	// String names the pattern for reports.
	String() string
}

// Uniform is the paper's global uniform traffic: every module addresses
// all other modules with equal probability.
type Uniform struct{}

// Share implements TrafficPattern.
func (Uniform) Share(src, dst, numModules int) float64 {
	if src == dst || numModules < 2 {
		return 0
	}
	return 1 / float64(numModules-1)
}

// Row implements TrafficPattern.
func (Uniform) Row(src int, dst []float64) {
	n := len(dst)
	if n < 2 {
		clear(dst)
		return
	}
	fill(dst, 1/float64(n-1))
	zeroAt(dst, src)
}

func (Uniform) String() string { return "uniform" }

// Hotspot sends a fixed fraction of every module's traffic to one hot
// module and spreads the rest uniformly.
type Hotspot struct {
	// Module is the hot destination.
	Module int
	// Fraction in [0, 1] is the share addressed to the hot module; any
	// other value panics once two modules exchange traffic.
	Fraction float64
}

// Share implements TrafficPattern.
func (h Hotspot) Share(src, dst, numModules int) float64 {
	if src == dst || numModules < 2 {
		return 0
	}
	h.check()
	uniformShare := (1 - h.Fraction) / float64(numModules-1)
	if dst == h.Module {
		if src == h.Module {
			return 0
		}
		return h.Fraction + uniformShare
	}
	// Sources other than the hotspot spread the remainder; the hotspot
	// module itself sends uniformly.
	if src == h.Module {
		return 1 / float64(numModules-1)
	}
	return uniformShare
}

// Row implements TrafficPattern.
func (h Hotspot) Row(src int, dst []float64) {
	n := len(dst)
	if n < 2 {
		clear(dst)
		return
	}
	h.check()
	if src == h.Module {
		Uniform{}.Row(src, dst)
		return
	}
	uniformShare := (1 - h.Fraction) / float64(n-1)
	fill(dst, uniformShare)
	if h.Module >= 0 && h.Module < n {
		dst[h.Module] = h.Fraction + uniformShare
	}
	zeroAt(dst, src)
}

func (h Hotspot) check() {
	if h.Fraction < 0 || h.Fraction > 1 {
		panic(fmt.Sprintf("noc: hotspot fraction %g outside [0,1]", h.Fraction))
	}
}

func (h Hotspot) String() string {
	return fmt.Sprintf("hotspot(module %d, %.0f%%)", h.Module, 100*h.Fraction)
}

// BitComplement sends all traffic of module i to module N-1-i — a
// worst-case permutation that stresses the bisection. With N odd the
// middle module is its own complement and sends nothing.
type BitComplement struct{}

// Share implements TrafficPattern.
func (BitComplement) Share(src, dst, numModules int) float64 {
	if dst == numModules-1-src && dst != src {
		return 1
	}
	return 0
}

// Row implements TrafficPattern.
func (BitComplement) Row(src int, dst []float64) {
	clear(dst)
	if d := len(dst) - 1 - src; d != src && d >= 0 && d < len(dst) {
		dst[d] = 1
	}
}

func (BitComplement) String() string { return "bit-complement" }

func fill(dst []float64, v float64) {
	for i := range dst {
		dst[i] = v
	}
}

// zeroAt clears dst[i] when i indexes dst: no module sends to itself.
func zeroAt(dst []float64, i int) {
	if i >= 0 && i < len(dst) {
		dst[i] = 0
	}
}
