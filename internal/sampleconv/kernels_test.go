package sampleconv

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// allEncodings are the encodings the kernel table covers (ADPCM4 included:
// its kernels must reproduce the scalar pipeline's pass-through/no-op
// behaviour exactly).
var allEncodings = []Encoding{MU255, ALAW, LIN16, LIN32, ADPCM4}

// kernelGains spans the shapes gains take in practice: unity (no-gain
// kernels), attenuation, boost, the device dB range extremes, saturating
// boosts, zero, and values that exercise Q16 rounding.
var kernelGains = []float64{1.0, 0.0, 0.25, 0.5, 0.999, 1.001, 2.0, 4.0,
	31.6227766, 0.0316227766, 100.0, 1e-9}

// randomSampleBuf returns n samples of random data in encoding e, plus the
// byte length used.
func randomSampleBuf(rng *rand.Rand, e Encoding, n int) []byte {
	buf := make([]byte, e.BytesPerSamples(n))
	rng.Read(buf)
	return buf
}

// runBoth runs the kernel table and the reference pipeline on identical
// inputs and returns both dst buffers.
func runBoth(dstEnc, srcEnc Encoding, src, dst []byte, n int, gain float64, mix bool) (got, want []byte) {
	got = append([]byte(nil), dst...)
	want = append([]byte(nil), dst...)
	q := GainQ16(gain)
	SelectKernel(dstEnc, srcEnc, mix, q != GainUnity)(got, src, n, q)
	referenceProcess(want, dstEnc, src, srcEnc, n, q, mix)
	return got, want
}

// TestKernelsMatchReference exhaustively walks every (srcEnc, dstEnc,
// gain, mix) combination with randomized buffers and asserts the selected
// kernel is bit-identical to the retained reference pipeline.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, srcEnc := range allEncodings {
		for _, dstEnc := range allEncodings {
			for _, gain := range kernelGains {
				for _, mix := range []bool{false, true} {
					for trial := 0; trial < 8; trial++ {
						n := 1 + rng.Intn(700)
						src := randomSampleBuf(rng, srcEnc, n)
						dst := randomSampleBuf(rng, dstEnc, n)
						got, want := runBoth(dstEnc, srcEnc, src, dst, n, gain, mix)
						if !bytes.Equal(got, want) {
							t.Fatalf("%v<-%v gain=%g mix=%v n=%d: kernel != reference",
								dstEnc, srcEnc, gain, mix, n)
						}
					}
				}
			}
		}
	}
}

// TestKernelsMatchReferenceQuick drives the same equivalence through
// testing/quick with arbitrary gains and data.
func TestKernelsMatchReferenceQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(data []byte, gainBits uint32, sel uint8, mix bool) bool {
		srcEnc := allEncodings[int(sel)%len(allEncodings)]
		dstEnc := allEncodings[int(sel/8)%len(allEncodings)]
		// Gain from the mantissa bits, kept in a plausible range.
		gain := float64(gainBits%(1<<20)) / float64(1<<16)
		n := len(data) / 4
		if n == 0 {
			return true
		}
		src := randomSampleBuf(rng, srcEnc, n)
		copy(src, data)
		dst := randomSampleBuf(rng, dstEnc, n)
		got, want := runBoth(dstEnc, srcEnc, src, dst, n, gain, mix)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestProcessMatchesReference checks the public entry point (which does
// its own gain quantization and kernel selection) against the reference.
func TestProcessMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, srcEnc := range allEncodings {
		for _, dstEnc := range allEncodings {
			for _, gain := range kernelGains {
				for _, mix := range []bool{false, true} {
					n := 1 + rng.Intn(300)
					src := randomSampleBuf(rng, srcEnc, n)
					dst := randomSampleBuf(rng, dstEnc, n)
					got := append([]byte(nil), dst...)
					want := append([]byte(nil), dst...)
					Process(got, dstEnc, src, srcEnc, n, gain, mix)
					referenceProcess(want, dstEnc, src, srcEnc, n, GainQ16(gain), mix)
					if !bytes.Equal(got, want) {
						t.Fatalf("Process %v<-%v gain=%g mix=%v: != reference",
							dstEnc, srcEnc, gain, mix)
					}
				}
			}
		}
	}
}

// TestApplyGainMatchesReference checks the in-place gain path (dst and src
// alias) against the reference applied to a copy.
func TestApplyGainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, e := range allEncodings {
		for _, gain := range kernelGains {
			n := 1 + rng.Intn(300)
			buf := randomSampleBuf(rng, e, n)
			want := append([]byte(nil), buf...)
			ApplyGain(e, buf, n, gain)
			if q := GainQ16(gain); q != GainUnity {
				referenceProcess(want, e, append([]byte(nil), want...), e, n, q, false)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("ApplyGain %v gain=%g: != reference", e, gain)
			}
		}
	}
}

// TestGainQ16 pins the quantization semantics the engine relies on.
func TestGainQ16(t *testing.T) {
	if GainQ16(1.0) != GainUnity {
		t.Errorf("GainQ16(1.0) = %d", GainQ16(1.0))
	}
	if GainQ16(0.5) != GainUnity/2 {
		t.Errorf("GainQ16(0.5) = %d", GainQ16(0.5))
	}
	// Near-unity gains collapse to unity (within half a Q16 step).
	if GainQ16(1.0+1e-9) != GainUnity {
		t.Errorf("GainQ16(1+1e-9) = %d", GainQ16(1.0+1e-9))
	}
	// Huge gains saturate instead of wrapping.
	if GainQ16(1e12) != math.MaxInt32 {
		t.Errorf("GainQ16(1e12) = %d", GainQ16(1e12))
	}
	if GainQ16(-1e12) != math.MinInt32 {
		t.Errorf("GainQ16(-1e12) = %d", GainQ16(-1e12))
	}
	// ScaleQ16 floors like an arithmetic shift.
	if got := ScaleQ16(-3, GainUnity/2); got != -2 {
		t.Errorf("ScaleQ16(-3, 0.5) = %d, want -2 (floor)", got)
	}
}

// TestMix2DTablesMatchScalar spot-checks the 64 KiB µ-law mix table
// against the decode/add/clamp/encode chain it caches, over the full
// byte-pair space.
func TestMix2DTablesMatchScalar(t *testing.T) {
	for d := 0; d < 256; d++ {
		for s := 0; s < 256; s++ {
			wantMu := EncodeMuLaw(Clamp16(int(MuToLin[d]) + int(MuToLin[s])))
			if got := muMixTab[d<<8|s]; got != wantMu {
				t.Fatalf("muMixTab[%#x,%#x] = %#x, want %#x", d, s, got, wantMu)
			}
		}
	}
}

// TestSelectKernelInvalidEncoding keeps the reference-fallback path for
// out-of-range encodings alive (the scalar loop treats unknown encodings
// as silent no-ops).
func TestSelectKernelInvalidEncoding(t *testing.T) {
	bad := Encoding(200)
	dst := []byte{1, 2, 3, 4}
	orig := append([]byte(nil), dst...)
	SelectKernel(bad, bad, true, false)(dst, []byte{5, 6, 7, 8}, 4, GainUnity)
	if !bytes.Equal(dst, orig) {
		t.Errorf("invalid-encoding mix mutated dst: %v", dst)
	}
}
