package numeric

import "math"

// GaussHermite holds nodes and weights for Gauss-Hermite quadrature,
// which integrates f against exp(-x^2) exactly for polynomials up to
// degree 2n-1. Combined with a change of variables it evaluates Gaussian
// expectations E[f(N(0,sigma^2))] to high accuracy.
type GaussHermite struct {
	Nodes   []float64
	Weights []float64
}

// NewGaussHermite computes an n-point Gauss-Hermite rule via Newton
// iteration on the Hermite polynomial roots (Golub-Welsch-free, stdlib
// only). n must be >= 1.
func NewGaussHermite(n int) *GaussHermite {
	if n < 1 {
		panic("numeric: GaussHermite order must be >= 1")
	}
	gh := &GaussHermite{
		Nodes:   make([]float64, n),
		Weights: make([]float64, n),
	}
	// Initial guesses from asymptotic estimates, then Newton refinement.
	var x float64
	for i := 0; i < (n+1)/2; i++ {
		switch i {
		case 0:
			x = math.Sqrt(float64(2*n+1)) - 1.85575*math.Pow(float64(2*n+1), -1.0/6.0)
		case 1:
			x -= 1.14 * math.Pow(float64(n), 0.426) / x
		case 2:
			x = 1.86*x - 0.86*gh.Nodes[0]
		case 3:
			x = 1.91*x - 0.91*gh.Nodes[1]
		default:
			x = 2*x - gh.Nodes[i-2]
		}
		var pp float64
		for iter := 0; iter < 100; iter++ {
			// Evaluate Hermite H_n (physicists', normalised recurrence).
			p1 := math.Pow(math.Pi, -0.25)
			p2 := 0.0
			for j := 1; j <= n; j++ {
				p3 := p2
				p2 = p1
				p1 = x*math.Sqrt(2.0/float64(j))*p2 - math.Sqrt(float64(j-1)/float64(j))*p3
			}
			pp = math.Sqrt(2*float64(n)) * p2
			dx := p1 / pp
			x -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		gh.Nodes[i] = x
		gh.Nodes[n-1-i] = -x
		w := 2.0 / (pp * pp)
		gh.Weights[i] = w
		gh.Weights[n-1-i] = w
	}
	return gh
}

// ExpectGaussian returns E[f(Z)] for Z ~ N(mu, sigma^2) using the rule.
func (gh *GaussHermite) ExpectGaussian(f func(float64) float64, mu, sigma float64) float64 {
	var sum float64
	for i, x := range gh.Nodes {
		sum += gh.Weights[i] * f(mu+math.Sqrt2*sigma*x)
	}
	return sum / math.Sqrt(math.Pi)
}
