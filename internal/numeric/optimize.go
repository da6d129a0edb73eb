package numeric

// CoordinateAscentOptions configures CoordinateAscent.
type CoordinateAscentOptions struct {
	// Sweeps is the number of full passes over the coordinates (default 10).
	Sweeps int
	// InitialStep is the starting probe step per coordinate (default 0.25).
	InitialStep float64
	// MinStep terminates refinement once the probe shrinks below it
	// (default 1e-4).
	MinStep float64
	// Lo and Hi optionally clamp every coordinate; ignored when Lo >= Hi.
	Lo, Hi float64
}

// CoordinateAscent maximises f by cyclic line probes along each coordinate,
// halving the step whenever a full sweep yields no improvement. It is
// robust for noisy objectives such as Monte-Carlo information rates where
// gradient methods fail. Returns the best point and objective value.
func CoordinateAscent(f func([]float64) float64, x0 []float64, opt CoordinateAscentOptions) ([]float64, float64) {
	if opt.Sweeps == 0 {
		opt.Sweeps = 10
	}
	if opt.InitialStep == 0 {
		opt.InitialStep = 0.25
	}
	if opt.MinStep == 0 {
		opt.MinStep = 1e-4
	}
	clamp := opt.Lo < opt.Hi

	x := append([]float64(nil), x0...)
	best := f(x)
	step := opt.InitialStep
	for s := 0; s < opt.Sweeps && step >= opt.MinStep; s++ {
		improved := false
		for i := range x {
			orig := x[i]
			for _, cand := range [2]float64{orig + step, orig - step} {
				if clamp {
					cand = Clamp(cand, opt.Lo, opt.Hi)
				}
				if cand == orig {
					continue
				}
				x[i] = cand
				if v := f(x); v > best {
					best = v
					orig = cand
					improved = true
				} else {
					x[i] = orig
				}
			}
			x[i] = orig
		}
		if !improved {
			step /= 2
		}
	}
	return x, best
}
