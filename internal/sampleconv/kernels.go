package sampleconv

// The batch kernel layer. The server's sample pipeline used to re-decide
// the (srcEnc, dstEnc, gain, mix) shape of a request on every sample,
// dispatching two encoding switches and a float64 multiply per sample
// (the Table 11 mixing penalty). Here that decision is hoisted to one
// table lookup per request: SelectKernel returns the batch function for
// the shape, and the request runs it over the whole buffer.
//
// Kernels, by request shape:
//
//   - same-encoding preemptive copy            -> memcpy
//   - µ-law saturating unity mix               -> the 64 KiB 2-D
//     companded-sum table muMixTab (dst byte × src byte -> mixed byte),
//     one load per sample; on amd64 the bytes it holds, computed 32 a
//     step in YMM registers (AVX2), or 64 a step in ZMM registers where
//     the CPU has AVX-512 VBMI (mix_amd64.s); each exact by enumeration
//     of all 65,536 byte pairs, the widest chosen once by a CPUID probe
//   - everything else (A-law, lin16 and lin32, gain, conversion, ...) ->
//     referenceProcess itself, the scalar pipeline, through a closure
//     built once at init; its per-sample loop is Strided, which channel
//     views run at the parent's channel stride
//
// The first two are the shapes the measured workloads run; a shape gains
// a kernel of its own only with a workload that runs it, and until then
// the pipeline's semantics are stated once, in referenceProcess.
//
// Gain is Q16 fixed point (GainQ16/ScaleQ16): the float64 multiplier is
// quantized once per request and applied with an integer multiply and an
// arithmetic shift. referenceProcess is the bit-exactness oracle for the
// specialized kernels: property tests assert kernel ≡ reference for all
// encoding pairs, gains, and mix/preempt modes.

import "math"

// Kernel is a specialized batch sample-pipeline step: it moves nsamples
// from src (already in the kernel's source encoding) into dst, applying
// the gain and mix behaviour the kernel was selected for. gainQ16 is the
// Q16 gain multiplier; kernels selected with hasGain=false ignore it.
// dst and src may alias only when they refer to the same samples (the
// in-place ApplyGain case).
type Kernel func(dst, src []byte, nsamples int, gainQ16 int32)

// GainUnity is the Q16 fixed-point representation of unity gain.
const GainUnity = 1 << 16

// GainQ16 quantizes a linear gain multiplier to Q16 fixed point. Gains
// within half a Q16 step of unity collapse to GainUnity (and select the
// no-gain kernels).
func GainQ16(gain float64) int32 {
	if gain == 1.0 {
		return GainUnity
	}
	q := math.Round(gain * GainUnity)
	if q > math.MaxInt32 {
		return math.MaxInt32
	}
	if q < math.MinInt32 {
		return math.MinInt32
	}
	return int32(q)
}

// ScaleQ16 applies a Q16 gain to a linear sample value (arithmetic-shift
// floor; the engine's gain semantics).
func ScaleQ16(v int, q int32) int {
	return int((int64(v) * int64(q)) >> 16)
}

// SelectKernel resolves the batch function for one request shape. It is
// intended to run once per request; the returned kernel is then applied
// to each buffer region without further dispatch. Encodings outside the
// known set run the reference pipeline too, through a closure built per
// call.
func SelectKernel(dstEnc, srcEnc Encoding, mix, hasGain bool) Kernel {
	if !dstEnc.Valid() || !srcEnc.Valid() {
		return makeReference(dstEnc, srcEnc, mix, hasGain)
	}
	return kernels[dstEnc][srcEnc][b2i(mix)][b2i(hasGain)]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// kernels is the [dstEnc][srcEnc][mix][hasGain] dispatch table, filled by
// init with specialized kernels where they exist and reference closures
// elsewhere.
var kernels [numEncodings][numEncodings][2][2]Kernel

// muMixTab[d<<8|s] is the µ-law byte for the saturating linear sum of
// µ-law bytes d and s: one lookup replaces two decodes, an add, a clamp,
// and an encode.
var muMixTab [65536]byte

// referenceProcess is the scalar pipeline (the pre-kernel Process body,
// with the float64 gain replaced by the same Q16 gain the kernels use).
// It defines the semantics every specialized kernel must reproduce
// bit-for-bit, and it is the kernel of every other shape.
func referenceProcess(dst []byte, dstEnc Encoding, src []byte, srcEnc Encoding, nsamples int, gainQ16 int32, mix bool) int {
	if nsamples <= 0 {
		return 0
	}
	if !mix && gainQ16 == GainUnity && dstEnc == srcEnc {
		n := dstEnc.BytesPerSamples(nsamples)
		copy(dst[:n], src[:n])
		return nsamples
	}
	Strided(dst, dstEnc, 0, 1, src, srcEnc, 0, 1, nsamples, gainQ16, mix)
	return nsamples
}

// Strided is the per-sample pipeline: for each of n samples it decodes
// sample unit s0+i*sstep of src, applies the Q16 gain q, adds sample unit
// d0+i*dstep of dst when mix is set, and encodes the saturated result
// there. referenceProcess runs it at stride 1, a mono channel view at the
// parent's channel count.
func Strided(dst []byte, dstEnc Encoding, d0, dstep int, src []byte, srcEnc Encoding, s0, sstep, n int, q int32, mix bool) {
	for i := 0; i < n; i++ {
		di := d0 + i*dstep
		v := DecodeSample(srcEnc, src, s0+i*sstep)
		if q != GainUnity {
			v = ScaleQ16(v, q)
		}
		if mix {
			v += DecodeSample(dstEnc, dst, di)
		}
		EncodeSample(dstEnc, dst, di, v)
	}
}

// makeReference returns the kernel of a shape without one of its own: the
// reference pipeline, with unity gain unless the shape has a gain, as
// the kernels selected with hasGain=false ignore theirs. The closure
// captures the shape, so SelectKernel hands out a prebuilt one and a
// request allocates nothing.
func makeReference(dstEnc, srcEnc Encoding, mix, hasGain bool) Kernel {
	return func(dst, src []byte, n int, q int32) {
		if !hasGain {
			q = GainUnity
		}
		referenceProcess(dst, dstEnc, src, srcEnc, n, q, mix)
	}
}

// --- specialized kernels ---

func makeCopy(e Encoding) Kernel {
	return func(dst, src []byte, n int, q int32) {
		nb := e.BytesPerSamples(n)
		copy(dst[:nb], src[:nb])
	}
}

// muMixScalar is the µ-law table mix: the whole kernel where there is no
// vector path, the tail of the vector kernel where there is one. It
// reslices dst and src to the request's length and ranges over the
// result, so the compiler proves every index in bounds; a `_ = dst[:n]`
// hint leaves two compare-and-branch pairs per byte in the loop.
func muMixScalar(dst, src []byte, n int, q int32) {
	dst = dst[:n]
	src = src[:len(dst)]
	for i, s := range src {
		dst[i] = muMixTab[uint16(dst[i])<<8|uint16(s)]
	}
}

func init() {
	// The 2-D µ-law mix table, built to match the reference pipeline
	// exactly: decode both bytes, saturating add, table encode.
	for d := 0; d < 256; d++ {
		for s := 0; s < 256; s++ {
			muMixTab[d<<8|s] = LinToMu[uint16(Clamp16(int(MuToLin[d])+int(MuToLin[s])))>>2]
		}
	}

	// The reference everywhere, then specialized overrides.
	for de := Encoding(0); de < numEncodings; de++ {
		for se := Encoding(0); se < numEncodings; se++ {
			for _, mix := range []bool{false, true} {
				for _, hasGain := range []bool{false, true} {
					kernels[de][se][b2i(mix)][b2i(hasGain)] = makeReference(de, se, mix, hasGain)
				}
			}
		}
		// Same-encoding preemptive unity copy (including ADPCM4, whose
		// opaque bytes pass through untouched).
		kernels[de][de][0][0] = makeCopy(de)
	}
	kernels[MU255][MU255][1][0] = muMixScalar

	// Last, so it replaces the entry set above: the vector form of the
	// µ-law mix where this build and this CPU have one.
	installVectorMix()
}
