package sampleconv

// The batch kernel layer. The server's sample pipeline used to re-decide
// the (srcEnc, dstEnc, gain, mix) shape of a request on every sample,
// dispatching two encoding switches and a float64 multiply per sample
// (the Table 11 mixing penalty). Here that decision is hoisted to one
// table lookup per request: SelectKernel returns a specialized batch
// function that runs a tight, switch-free loop over the whole buffer.
//
// Specializations:
//
//   - same-encoding preemptive copy            -> memcpy
//   - µ-law <-> A-law translation              -> 256-byte tables
//   - µ-law/A-law saturating mix               -> 64 KiB 2-D companded-sum
//     tables (src byte × dst byte -> mixed byte), one load per sample
//   - lin16 mix / gain / gain+mix              -> word loads, integer Q16
//   - µ-law mix on amd64 with AVX2             -> the bytes muMixTab
//     holds, computed 32 a step in YMM registers, or 64 a step in ZMM
//     registers where the CPU has AVX-512 VBMI (mix_amd64.s); each exact
//     by enumeration of all 65,536 byte pairs, the widest chosen once by
//     a CPUID probe
//   - µ-law/A-law gain and gain+mix            -> decode-table + Q16 +
//     encode-table loops
//   - everything else (lin32, cross-encoding mixes, ...) -> a two-pass
//     generic kernel: batch-decode into a pooled []int16 scratch, then a
//     per-destination finish loop (still switch-free per sample)
//
// Gain is Q16 fixed point (GainQ16/ScaleQ16): the float64 multiplier is
// quantized once per request and applied with an integer multiply and an
// arithmetic shift. referenceProcess retains the old scalar pipeline
// (with the same Q16 gain) and is the bit-exactness oracle for every
// kernel: property tests assert kernel ≡ reference for all encoding
// pairs, gains, and mix/preempt modes.

import (
	"encoding/binary"
	"math"
	"sync"
)

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
// known set fall back to the scalar reference pipeline.
func SelectKernel(dstEnc, srcEnc Encoding, mix, hasGain bool) Kernel {
	if !dstEnc.Valid() || !srcEnc.Valid() {
		return func(dst, src []byte, n int, q int32) {
			referenceProcess(dst, dstEnc, src, srcEnc, n, q, mix)
		}
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
// init with specialized kernels where they exist and generic two-pass
// kernels elsewhere.
var kernels [numEncodings][numEncodings][2][2]Kernel

// Companded 2-D mix tables: muMixTab[d<<8|s] is the µ-law byte for the
// saturating linear sum of µ-law bytes d and s (likewise aMixTab for
// A-law). 64 KiB each; one lookup replaces two decodes, an add, a clamp,
// and an encode.
var (
	muMixTab [65536]byte
	aMixTab  [65536]byte
)

// referenceProcess is the retained scalar pipeline (the pre-kernel
// Process body, with the float64 gain replaced by the same Q16 gain the
// kernels use). It defines the semantics every kernel must reproduce
// bit-for-bit and serves as the fallback for unknown encodings.
func referenceProcess(dst []byte, dstEnc Encoding, src []byte, srcEnc Encoding, nsamples int, gainQ16 int32, mix bool) int {
	if nsamples <= 0 {
		return 0
	}
	if !mix && gainQ16 == GainUnity && dstEnc == srcEnc {
		n := dstEnc.BytesPerSamples(nsamples)
		copy(dst[:n], src[:n])
		return nsamples
	}
	if !mix && gainQ16 == GainUnity && srcEnc == MU255 && dstEnc == ALAW {
		for i := 0; i < nsamples; i++ {
			dst[i] = MuToA[src[i]]
		}
		return nsamples
	}
	if !mix && gainQ16 == GainUnity && srcEnc == ALAW && dstEnc == MU255 {
		for i := 0; i < nsamples; i++ {
			dst[i] = AToMu[src[i]]
		}
		return nsamples
	}
	for i := 0; i < nsamples; i++ {
		v := decode16(srcEnc, src, i)
		if gainQ16 != GainUnity {
			v = ScaleQ16(v, gainQ16)
		}
		if mix {
			v += decode16(dstEnc, dst, i)
		}
		encode16(dstEnc, dst, i, v)
	}
	return nsamples
}

// --- batch decode/encode primitives (the generic kernel's passes) ---

// decBatch[e] decodes len(lin) samples of src into the 16-bit linear
// domain. ADPCM4 has no linear interpretation here (conversion modules
// decompress before the pipeline); it decodes as zero, as the scalar
// pipeline always has.
var decBatch = [numEncodings]func(lin []int16, src []byte){
	MU255: func(lin []int16, src []byte) {
		for i := range lin {
			lin[i] = MuToLin[src[i]]
		}
	},
	ALAW: func(lin []int16, src []byte) {
		for i := range lin {
			lin[i] = AToLin[src[i]]
		}
	},
	LIN16: func(lin []int16, src []byte) {
		for i := range lin {
			lin[i] = int16(binary.LittleEndian.Uint16(src[2*i:]))
		}
	},
	LIN32: func(lin []int16, src []byte) {
		for i := range lin {
			lin[i] = int16(int32(binary.LittleEndian.Uint32(src[4*i:])) >> 16)
		}
	},
	ADPCM4: func(lin []int16, src []byte) {
		for i := range lin {
			lin[i] = 0
		}
	},
}

// encBatch[e] encodes len(lin) 16-bit linear samples into dst. ADPCM4 is
// a no-op, as encode16 always was for it.
var encBatch = [numEncodings]func(dst []byte, lin []int16){
	MU255: func(dst []byte, lin []int16) {
		for i, v := range lin {
			dst[i] = LinToMu[uint16(v)>>2]
		}
	},
	ALAW: func(dst []byte, lin []int16) {
		for i, v := range lin {
			dst[i] = LinToA[uint16(v)>>2]
		}
	},
	LIN16: func(dst []byte, lin []int16) {
		for i, v := range lin {
			binary.LittleEndian.PutUint16(dst[2*i:], uint16(v))
		}
	},
	LIN32: func(dst []byte, lin []int16) {
		for i, v := range lin {
			binary.LittleEndian.PutUint32(dst[4*i:], uint32(int32(v)<<16))
		}
	},
	ADPCM4: func(dst []byte, lin []int16) {},
}

// finBatch[e] is the generic kernel's second pass: apply gain and mix in
// the wide linear domain and encode into dst. The mode flags are hoisted
// out of the sample loops.
var finBatch = [numEncodings]func(dst []byte, lin []int16, q int32, mix, hasGain bool){
	MU255: func(dst []byte, lin []int16, q int32, mix, hasGain bool) {
		switch {
		case !mix && !hasGain:
			encBatch[MU255](dst, lin)
		case !mix:
			for i, v0 := range lin {
				dst[i] = LinToMu[uint16(Clamp16(ScaleQ16(int(v0), q)))>>2]
			}
		case !hasGain:
			for i, v0 := range lin {
				dst[i] = LinToMu[uint16(Clamp16(int(v0)+int(MuToLin[dst[i]])))>>2]
			}
		default:
			for i, v0 := range lin {
				dst[i] = LinToMu[uint16(Clamp16(ScaleQ16(int(v0), q)+int(MuToLin[dst[i]])))>>2]
			}
		}
	},
	ALAW: func(dst []byte, lin []int16, q int32, mix, hasGain bool) {
		switch {
		case !mix && !hasGain:
			encBatch[ALAW](dst, lin)
		case !mix:
			for i, v0 := range lin {
				dst[i] = LinToA[uint16(Clamp16(ScaleQ16(int(v0), q)))>>2]
			}
		case !hasGain:
			for i, v0 := range lin {
				dst[i] = LinToA[uint16(Clamp16(int(v0)+int(AToLin[dst[i]])))>>2]
			}
		default:
			for i, v0 := range lin {
				dst[i] = LinToA[uint16(Clamp16(ScaleQ16(int(v0), q)+int(AToLin[dst[i]])))>>2]
			}
		}
	},
	LIN16: func(dst []byte, lin []int16, q int32, mix, hasGain bool) {
		switch {
		case !mix && !hasGain:
			encBatch[LIN16](dst, lin)
		case !mix:
			for i, v0 := range lin {
				binary.LittleEndian.PutUint16(dst[2*i:], uint16(Clamp16(ScaleQ16(int(v0), q))))
			}
		case !hasGain:
			for i, v0 := range lin {
				v := int(v0) + int(int16(binary.LittleEndian.Uint16(dst[2*i:])))
				binary.LittleEndian.PutUint16(dst[2*i:], uint16(Clamp16(v)))
			}
		default:
			for i, v0 := range lin {
				v := ScaleQ16(int(v0), q) + int(int16(binary.LittleEndian.Uint16(dst[2*i:])))
				binary.LittleEndian.PutUint16(dst[2*i:], uint16(Clamp16(v)))
			}
		}
	},
	LIN32: func(dst []byte, lin []int16, q int32, mix, hasGain bool) {
		switch {
		case !mix && !hasGain:
			encBatch[LIN32](dst, lin)
		case !mix:
			for i, v0 := range lin {
				s := Clamp16(ScaleQ16(int(v0), q))
				binary.LittleEndian.PutUint32(dst[4*i:], uint32(int32(s)<<16))
			}
		case !hasGain:
			for i, v0 := range lin {
				v := int(v0) + int(int32(binary.LittleEndian.Uint32(dst[4*i:]))>>16)
				binary.LittleEndian.PutUint32(dst[4*i:], uint32(int32(Clamp16(v))<<16))
			}
		default:
			for i, v0 := range lin {
				v := ScaleQ16(int(v0), q) + int(int32(binary.LittleEndian.Uint32(dst[4*i:]))>>16)
				binary.LittleEndian.PutUint32(dst[4*i:], uint32(int32(Clamp16(v))<<16))
			}
		}
	},
	ADPCM4: func(dst []byte, lin []int16, q int32, mix, hasGain bool) {},
}

// linScratch pools the generic kernel's []int16 staging so the streaming
// hot path allocates nothing in steady state.
var linScratch = sync.Pool{New: func() any { return new([]int16) }}

func makeGeneric(dstEnc, srcEnc Encoding, mix, hasGain bool) Kernel {
	dec := decBatch[srcEnc]
	fin := finBatch[dstEnc]
	return func(dst, src []byte, n int, q int32) {
		lp := linScratch.Get().(*[]int16)
		lin := *lp
		if cap(lin) < n {
			lin = make([]int16, n)
		}
		lin = lin[:n]
		dec(lin, src)
		fin(dst, lin, q, mix, hasGain)
		*lp = lin
		linScratch.Put(lp)
	}
}

// --- specialized kernels ---

func makeCopy(e Encoding) Kernel {
	return func(dst, src []byte, n int, q int32) {
		nb := e.BytesPerSamples(n)
		copy(dst[:nb], src[:nb])
	}
}

func makeTranslate(tbl *[256]byte) Kernel {
	return func(dst, src []byte, n int, q int32) {
		for i := 0; i < n; i++ {
			dst[i] = tbl[src[i]]
		}
	}
}

// makeMix2D reslices dst and src to the request's length and ranges over
// the result, so the compiler proves every index in bounds; a
// `_ = dst[:n]` hint leaves two compare-and-branch pairs per byte in the
// loop.
func makeMix2D(tbl *[65536]byte) Kernel {
	return func(dst, src []byte, n int, q int32) {
		dst = dst[:n]
		src = src[:len(dst)]
		for i, s := range src {
			dst[i] = tbl[uint16(dst[i])<<8|uint16(s)]
		}
	}
}

// muMixScalar is the µ-law table mix: the whole kernel where there is no
// vector path, the tail of the vector kernel where there is one.
var muMixScalar = makeMix2D(&muMixTab)

// compandTabThreshold is the request length beyond which the companded
// gain kernels precompute a 256-entry gain table (one multiply per
// distinct byte value) instead of multiplying per sample.
const compandTabThreshold = 256

// makeCompandGain builds the µ-law/A-law same-encoding gain kernels
// (with or without mix). The gain is constant across a request, so for
// any non-trivial length the multiply is folded into a per-request
// 256-entry table and the sample loop becomes pure lookups.
func makeCompandGain(dec *[256]int16, enc *[16384]byte, mix bool) Kernel {
	if mix {
		return func(dst, src []byte, n int, q int32) {
			if n >= compandTabThreshold {
				var scaled [256]int32
				for b := range scaled {
					scaled[b] = int32(ScaleQ16(int(dec[b]), q))
				}
				for i := 0; i < n; i++ {
					v := int(scaled[src[i]]) + int(dec[dst[i]])
					dst[i] = enc[uint16(Clamp16(v))>>2]
				}
				return
			}
			for i := 0; i < n; i++ {
				v := ScaleQ16(int(dec[src[i]]), q) + int(dec[dst[i]])
				dst[i] = enc[uint16(Clamp16(v))>>2]
			}
		}
	}
	return func(dst, src []byte, n int, q int32) {
		if n >= compandTabThreshold {
			var tbl [256]byte
			for b := range tbl {
				tbl[b] = enc[uint16(Clamp16(ScaleQ16(int(dec[b]), q)))>>2]
			}
			for i := 0; i < n; i++ {
				dst[i] = tbl[src[i]]
			}
			return
		}
		for i := 0; i < n; i++ {
			dst[i] = enc[uint16(Clamp16(ScaleQ16(int(dec[src[i]]), q)))>>2]
		}
	}
}

func lin16Mix(dst, src []byte, n int, q int32) {
	for i := 0; i < n; i++ {
		v := int(int16(binary.LittleEndian.Uint16(src[2*i:]))) +
			int(int16(binary.LittleEndian.Uint16(dst[2*i:])))
		binary.LittleEndian.PutUint16(dst[2*i:], uint16(Clamp16(v)))
	}
}

func lin16Gain(dst, src []byte, n int, q int32) {
	for i := 0; i < n; i++ {
		v := ScaleQ16(int(int16(binary.LittleEndian.Uint16(src[2*i:]))), q)
		binary.LittleEndian.PutUint16(dst[2*i:], uint16(Clamp16(v)))
	}
}

func lin16GainMix(dst, src []byte, n int, q int32) {
	for i := 0; i < n; i++ {
		v := ScaleQ16(int(int16(binary.LittleEndian.Uint16(src[2*i:]))), q) +
			int(int16(binary.LittleEndian.Uint16(dst[2*i:])))
		binary.LittleEndian.PutUint16(dst[2*i:], uint16(Clamp16(v)))
	}
}

// muToLin16 / linToMu16 and the A-law twins are the hot CODEC<->linear
// conversion kernels (unity gain, preemptive).
func muToLin16(dst, src []byte, n int, q int32) {
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint16(dst[2*i:], uint16(MuToLin[src[i]]))
	}
}

func aToLin16(dst, src []byte, n int, q int32) {
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint16(dst[2*i:], uint16(AToLin[src[i]]))
	}
}

func lin16ToMu(dst, src []byte, n int, q int32) {
	for i := 0; i < n; i++ {
		dst[i] = LinToMu[binary.LittleEndian.Uint16(src[2*i:])>>2]
	}
}

func lin16ToA(dst, src []byte, n int, q int32) {
	for i := 0; i < n; i++ {
		dst[i] = LinToA[binary.LittleEndian.Uint16(src[2*i:])>>2]
	}
}

func init() {
	// The 2-D companded mix tables, built to match the reference pipeline
	// exactly: decode both bytes, saturating add, table encode.
	for d := 0; d < 256; d++ {
		for s := 0; s < 256; s++ {
			muMixTab[d<<8|s] = LinToMu[uint16(Clamp16(int(MuToLin[d])+int(MuToLin[s])))>>2]
			aMixTab[d<<8|s] = LinToA[uint16(Clamp16(int(AToLin[d])+int(AToLin[s])))>>2]
		}
	}

	// Generic kernels everywhere, then specialized overrides.
	for de := Encoding(0); de < numEncodings; de++ {
		for se := Encoding(0); se < numEncodings; se++ {
			for _, mix := range []bool{false, true} {
				for _, hasGain := range []bool{false, true} {
					kernels[de][se][b2i(mix)][b2i(hasGain)] = makeGeneric(de, se, mix, hasGain)
				}
			}
		}
		// Same-encoding preemptive unity copy (including ADPCM4, whose
		// opaque bytes pass through untouched).
		kernels[de][de][0][0] = makeCopy(de)
	}

	kernels[ALAW][MU255][0][0] = makeTranslate(&MuToA)
	kernels[MU255][ALAW][0][0] = makeTranslate(&AToMu)

	kernels[MU255][MU255][1][0] = muMixScalar
	kernels[ALAW][ALAW][1][0] = makeMix2D(&aMixTab)

	kernels[MU255][MU255][0][1] = makeCompandGain(&MuToLin, &LinToMu, false)
	kernels[MU255][MU255][1][1] = makeCompandGain(&MuToLin, &LinToMu, true)
	kernels[ALAW][ALAW][0][1] = makeCompandGain(&AToLin, &LinToA, false)
	kernels[ALAW][ALAW][1][1] = makeCompandGain(&AToLin, &LinToA, true)

	kernels[LIN16][LIN16][1][0] = lin16Mix
	kernels[LIN16][LIN16][0][1] = lin16Gain
	kernels[LIN16][LIN16][1][1] = lin16GainMix

	kernels[LIN16][MU255][0][0] = muToLin16
	kernels[LIN16][ALAW][0][0] = aToLin16
	kernels[MU255][LIN16][0][0] = lin16ToMu
	kernels[ALAW][LIN16][0][0] = lin16ToA

	// Last, so it replaces an entry set above: the vector form of the
	// µ-law mix where this build and this CPU have one.
	installVectorMix()
}
