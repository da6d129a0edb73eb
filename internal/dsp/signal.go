package dsp

// ArgMax returns the index of the largest element of x (-1 for empty).
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best, bi := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}
