//go:build amd64 && !purego

package sampleconv

// The amd64 vector path for the mix kernel the codec device runs by
// default: a client mixing µ-law into µ-law at unity gain. mix_amd64.s
// says how it computes what muMixTab holds.

// cpuid executes CPUID with the given EAX and ECX.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0. The caller has checked
// OSXSAVE.
func xgetbv() (eax, edx uint32)

// mixMuAVX2 mixes the µ-law bytes of src into dst. len(dst) is a multiple
// of 32 and len(src) is at least len(dst).
//
//go:noescape
func mixMuAVX2(dst, src []byte)

// hasAVX2 reports whether the CPU implements AVX2 and the operating
// system saves the YMM registers across context switches.
func hasAVX2() bool {
	const (
		osxsave = 1 << 27 // leaf 1 ECX
		avx     = 1 << 28 // leaf 1 ECX
		avx2    = 1 << 5  // leaf 7 EBX
		xmmYmm  = 0b110   // XCR0: SSE and AVX state enabled
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if lo, _ := xgetbv(); lo&xmmYmm != xmmYmm {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// muMixVector runs the whole 32-byte blocks of a request in YMM
// registers (none, for a short request) and hands the tail, if there is
// one, to the table kernel.
func muMixVector(dst, src []byte, n int, q int32) {
	body := n &^ 31
	mixMuAVX2(dst[:body], src[:body])
	if body < n {
		muMixScalar(dst[body:], src[body:], n-body, q)
	}
}

// installVectorMix is the last step of kernels.go's init.
func installVectorMix() {
	if hasAVX2() {
		kernels[MU255][MU255][1][0] = muMixVector
	}
}
