package sampleconv

// The float-gain sample surface: the server resolves every request to a
// kernel once (SelectKernel), so these whole-buffer forms exist only for
// the tests that state the pipeline's arithmetic through them.

// Process implements the server's per-request sample pipeline: decode
// nsamples of src (encoding srcEnc) to linear, scale by gain, convert to
// dstEnc, and either mix into dst (saturating add with the existing
// contents) or copy over it (preemptive play). dst and src must hold at
// least nsamples in their respective encodings. It returns the number of
// samples processed.
//
// Gain is a linear multiplier (1.0 = 0 dB), quantized to Q16 fixed point.
// The request shape is resolved once, to a batch kernel, rather than per
// sample.
func Process(dst []byte, dstEnc Encoding, src []byte, srcEnc Encoding, nsamples int, gain float64, mix bool) int {
	if nsamples <= 0 {
		return 0
	}
	q := GainQ16(gain)
	SelectKernel(dstEnc, srcEnc, mix, q != GainUnity)(dst, src, nsamples, q)
	return nsamples
}

// Convert translates nsamples from srcEnc to dstEnc with unity gain,
// overwriting dst. It is Process without mixing.
func Convert(dst []byte, dstEnc Encoding, src []byte, srcEnc Encoding, nsamples int) int {
	if nsamples <= 0 {
		return 0
	}
	SelectKernel(dstEnc, srcEnc, false, false)(dst, src, nsamples, GainUnity)
	return nsamples
}

// Mix mixes nsamples of src into dst, both in encoding e, saturating in
// the linear domain (the paper's AF_mix_u / AF_mix_a behaviour).
func Mix(e Encoding, dst, src []byte, nsamples int) {
	if nsamples <= 0 {
		return
	}
	SelectKernel(e, e, true, false)(dst, src, nsamples, GainUnity)
}

// ApplyGain scales nsamples of buf (encoding e) by a linear gain factor in
// place.
func ApplyGain(e Encoding, buf []byte, nsamples int, gain float64) {
	q := GainQ16(gain)
	if q == GainUnity || nsamples <= 0 {
		return
	}
	SelectKernel(e, e, false, true)(buf, buf, nsamples, q)
}

// SamplesPerBytes returns the number of single-channel samples encoded in
// n bytes of encoding e.
func (e Encoding) SamplesPerBytes(n int) int {
	info := Sizes[e]
	return n / int(info.BytesPerUnit) * int(info.SampsPerUnit)
}

// DecodeALaw expands one A-law byte to 16-bit linear via table lookup.
func DecodeALaw(a byte) int16 { return AToLin[a] }

const (
	// MuMax is the largest linear magnitude representable in µ-law.
	MuMax = 32124
	// AMax is the largest linear magnitude representable in A-law.
	AMax = 32256
)
