package ldpc

// forceAVX2Kernels switches the batch decoder to the 4-lane AVX2
// kernels and returns the function that restores the CPU's own choice.
// ok is false, and nothing changes, when the CPU runs the 4-lane (or
// no) kernels already. Decoders built while forced must not outlive
// the switch: their stride is rounded to the narrower width.
func forceAVX2Kernels() (restore func(), ok bool) {
	if !useAVX512 {
		return func() {}, false
	}
	width := laneWidth
	useAVX512, laneWidth = false, laneQuad
	return func() { useAVX512, laneWidth = true, width }, true
}
