package linalg

// useAVX2 selects the assembly kernels. It is decided here, once, and
// never written again: the processor must implement AVX2 and the
// operating system must save the YMM registers across a context switch
// (CPUID says the first, XGETBV the second).
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.7.0:EBX
		ymmSSE  = 0b110   // XCR0: the OS saves XMM and YMM state
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&ymmSSE != ymmSSE {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// cpuid executes CPUID with EAX=leaf, ECX=sub.
//
//go:noescape
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
//
//go:noescape
func xgetbv() (eax, edx uint32)

// affineAVX2 is Packed.Apply for AVX2: four output columns to a
// register, blocks of up to four registers per pass over k, VMULPD
// then VADDPD — never an FMA, which would skip the product's
// rounding. w is k rows of n rounded up to a multiple of four, bias
// is padded likewise; the strides count elements.
//
//go:noescape
func affineAVX2(dst *float64, dstRow, dstCol int, a *float64, aRow, rows int, w, bias *float64, off *int, n, k int)

// reluAVX2 is ReLU for AVX2: VMAXPD with zero as the second source,
// which is the operand the instruction returns for a NaN and for two
// zeros of either sign.
//
//go:noescape
func reluAVX2(dst, src *float64, n int)
