package sim

import (
	"math"
	"testing"

	"repro/internal/noc"
)

// linearDestination is the reference draw: scan destinations in order,
// adding shares, and return the first whose running sum exceeds u;
// past the final sum fall back to the last destination with a share,
// and return -1 when src emits nothing.
func linearDestination(tp noc.TrafficPattern, src, n int, u float64) int {
	var acc float64
	for d := 0; d < n; d++ {
		acc += tp.Share(src, d, n)
		if u < acc {
			return d
		}
	}
	if acc == 0 {
		return -1
	}
	for d := n - 1; d >= 0; d-- {
		if tp.Share(src, d, n) > 0 {
			return d
		}
	}
	return -1
}

// TestPickDestinationMatchesLinearScan probes the binary search at every
// running-sum boundary, at both float neighbours of each, and past the
// final sum, where the rounding-residue fallback decides.
func TestPickDestinationMatchesLinearScan(t *testing.T) {
	for _, n := range []int{2, 3, 7, 64, 65} {
		patterns := []noc.TrafficPattern{
			noc.Uniform{},
			noc.Hotspot{Module: n / 3, Fraction: 0.25},
			noc.BitComplement{},
		}
		shares := make([]float64, n)
		for _, tp := range patterns {
			fallbacks := 0
			for src := 0; src < n; src++ {
				last := runningShares(shares, tp, src)
				probes := []float64{0, 1, math.Nextafter(1, 2)}
				for _, b := range shares {
					probes = append(probes, b, math.Nextafter(b, -1), math.Nextafter(b, 2))
				}
				for _, u := range probes {
					if u < 0 {
						continue // the generator draws from [0, 1)
					}
					got, want := pickDestination(shares, last, u), linearDestination(tp, src, n, u)
					if got != want {
						t.Fatalf("%s n=%d src=%d u=%v: picked %d, linear scan %d (sums %v)",
							tp, n, src, u, got, want, shares)
					}
					if want >= 0 && u >= shares[n-1] {
						fallbacks++
					}
				}
			}
			if fallbacks == 0 {
				t.Errorf("%s n=%d: no probe took the residue fallback", tp, n)
			}
		}
	}
}

// negativeShare is a malformed pattern the running sums must reject.
type negativeShare struct{}

func (negativeShare) Share(src, dst, n int) float64 { return -1 }
func (negativeShare) Row(src int, dst []float64) {
	for d := range dst {
		dst[d] = -1
	}
}
func (negativeShare) String() string { return "negative" }

func TestNegativeSharePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative share did not panic")
		}
	}()
	Run(Config{Topo: noc.NewMesh2D(2, 2), Traffic: negativeShare{}, InjectionRate: 0.1})
}
