//go:build !amd64

package ldpc

// forceAVX2Kernels has nothing to switch off amd64: the generic
// per-lane paths already run at the 4-lane width.
func forceAVX2Kernels() (restore func(), ok bool) { return func() {}, false }
