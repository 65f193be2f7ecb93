//go:build !amd64

package linalg

// Only amd64 has assembly kernels; every other architecture runs the
// portable loops.
const useAVX2 = false

func affineAVX2(dst *float64, dstRow, dstCol int, a *float64, aRow, rows int, w, bias *float64, off *int, n, k int) {
	panic("linalg: no AVX2 kernel on this architecture")
}

func reluAVX2(dst, src *float64, n int) {
	panic("linalg: no AVX2 kernel on this architecture")
}
