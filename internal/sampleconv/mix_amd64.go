//go:build amd64 && !purego

package sampleconv

// The amd64 vector paths for the mix kernel the codec device runs by
// default: a client mixing µ-law into µ-law at unity gain. mix_amd64.s
// says how each computes what muMixTab holds. installVectorMix picks the
// widest the CPU runs: AVX-512 with VBMI, then AVX2, then the table.

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

// mixMuAVX512 mixes the µ-law bytes of src into dst, looking up tab.
// len(dst) is a multiple of 64 and len(src) is at least len(dst).
//
//go:noescape
func mixMuAVX512(dst, src []byte, tab *[384]byte)

// muMixZTab is mixMuAVX512's tab, built from the scalar codec: at b and
// 128+b, for b < 128, the x and y of muLawDecode(b)/4 = x + 127y (every
// µ-law value is a multiple of 4), and at 256+i the segment+1 of
// muLawEncode's biased magnitudes p with p>>6 = i.
var muMixZTab = func() (tab [384]byte) {
	for b := 0; b < 128; b++ {
		v := int(muLawDecode(byte(b)) >> 2)
		y := (v - 63) / 127 // v <= 0, so this is v/127 rounded: |x| <= 63
		tab[b], tab[128+b] = byte(int8(v-127*y)), byte(int8(y))
	}
	for i := 0; i < 128; i++ {
		tab[256+i] = byte(segment(i<<6|0x3F, muSegEnd[:]) + 1)
	}
	return tab
}()

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

// hasAVX512VBMI reports whether the CPU has AVX2 and implements AVX-512
// F, BW and VBMI, and the operating system saves the opmask and ZMM
// registers across context switches.
func hasAVX512VBMI() bool {
	const (
		avx512f  = 1 << 16 // leaf 7 EBX
		avx512bw = 1 << 30 // leaf 7 EBX
		vbmi     = 1 << 1  // leaf 7 ECX
		zmm      = 0xE6    // XCR0: SSE, AVX, opmask and both ZMM states
	)
	if !hasAVX2() {
		return false
	}
	if lo, _ := xgetbv(); lo&zmm != zmm {
		return false
	}
	_, b, c, _ := cpuid(7, 0)
	return b&(avx512f|avx512bw) == avx512f|avx512bw && c&vbmi != 0
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

// muMixVector512 runs the whole 64-byte blocks of a request in ZMM
// registers and hands the rest to muMixVector: one 32-byte step, if the
// rest holds one, then the table.
func muMixVector512(dst, src []byte, n int, q int32) {
	body := n &^ 63
	mixMuAVX512(dst[:body], src[:body], &muMixZTab)
	if body < n {
		muMixVector(dst[body:], src[body:], n-body, q)
	}
}

// installVectorMix is the last step of kernels.go's init.
func installVectorMix() {
	switch {
	case hasAVX512VBMI():
		kernels[MU255][MU255][1][0] = muMixVector512
	case hasAVX2():
		kernels[MU255][MU255][1][0] = muMixVector
	}
}
