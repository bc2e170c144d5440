package sampleconv

import (
	"fmt"
	"math/rand"
	"testing"
)

// Substrate benchmarks: the per-sample costs behind the server's mixing
// and conversion paths (the Table 11 mixing penalty originates here).

func benchBuf(n int) ([]byte, []byte) {
	dst := make([]byte, n)
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i*7 + 1)
		dst[i] = byte(i * 3)
	}
	return dst, src
}

func BenchmarkMuLawDecode(b *testing.B) {
	_, src := benchBuf(8192)
	b.SetBytes(8192)
	var sink int16
	for i := 0; i < b.N; i++ {
		for _, v := range src {
			sink += DecodeMuLaw(v)
		}
	}
	_ = sink
}

func BenchmarkMuLawEncode(b *testing.B) {
	b.SetBytes(8192)
	var sink byte
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8192; j++ {
			sink += EncodeMuLaw(int16(j*7 - 28000))
		}
	}
	_ = sink
}

// benchMix times one mix kernel at the ledger's payload sizes on the
// ledger's kind of payload (seeded rng.Read, as bench/ generates it). dst
// is restored from a pristine copy before every call: mixing into the same
// dst settles every sample at the clip level within a few dozen calls, and
// from then on the benchmark times a handful of table rows. The restoring
// copy is inside the timed loop (a memmove of the size, ~2 % of the table
// kernel) because stopping the timer around it costs more than it does.
func benchMix(b *testing.B, e Encoding, k Kernel) {
	for _, size := range []int{64, 8 << 10, 24 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			pristine, src := make([]byte, size), make([]byte, size)
			rng.Read(pristine)
			rng.Read(src)
			dst := make([]byte, size)
			n := e.SamplesPerBytes(size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(dst, pristine)
				k(dst, src, n, GainUnity)
			}
		})
	}
}

// BenchmarkMixMuLaw is the µ-law unity mix as SelectKernel hands it out;
// its Table twin calls the table loop directly, so on a CPU with the
// vector path the pair is the before/after, and under -tags purego the two
// are equal.
func BenchmarkMixMuLaw(b *testing.B) {
	benchMix(b, MU255, SelectKernel(MU255, MU255, true, false))
}
func BenchmarkMixMuLawTable(b *testing.B) { benchMix(b, MU255, muMixScalar) }
func BenchmarkMixLin16(b *testing.B) {
	benchMix(b, LIN16, SelectKernel(LIN16, LIN16, true, false))
}

// BenchmarkMixMuLawReference is the retained scalar pipeline on the same
// workload as BenchmarkMixMuLaw: the before/after of the kernel layer.
func BenchmarkMixMuLawReference(b *testing.B) {
	benchMix(b, MU255, func(dst, src []byte, n int, q int32) {
		referenceProcess(dst, MU255, src, MU255, n, q, true)
	})
}

// BenchmarkKernel exercises each specialized kernel shape through
// SelectKernel, with allocation tracking: the streaming hot path must not
// allocate in steady state. The µ-law and lin16 unity mixes are
// BenchmarkMixMuLaw and BenchmarkMixLin16 above.
func BenchmarkKernel(b *testing.B) {
	cases := []struct {
		name           string
		dstEnc, srcEnc Encoding
		mix, hasGain   bool
		gain           float64
	}{
		{"a_mix", ALAW, ALAW, true, false, 1.0},
		{"mu_gain", MU255, MU255, false, true, 0.5},
		{"mu_gain_mix", MU255, MU255, true, true, 0.5},
		{"lin16_gain", LIN16, LIN16, false, true, 0.5},
		{"lin16_gain_mix", LIN16, LIN16, true, true, 0.5},
		{"mu_to_a", ALAW, MU255, false, false, 1.0},
		{"mu_to_lin16", LIN16, MU255, false, false, 1.0},
		{"lin16_to_mu", MU255, LIN16, false, false, 1.0},
		{"generic_lin32_mix", LIN32, MU255, true, false, 1.0},
		{"generic_mu_to_lin16_gain_mix", LIN16, MU255, true, true, 0.5},
	}
	const n = 8192
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			src := make([]byte, tc.srcEnc.BytesPerSamples(n))
			dst := make([]byte, tc.dstEnc.BytesPerSamples(n))
			for i := range src {
				src[i] = byte(i*7 + 1)
			}
			for i := range dst {
				dst[i] = byte(i * 3)
			}
			q := GainQ16(tc.gain)
			k := SelectKernel(tc.dstEnc, tc.srcEnc, tc.mix, tc.hasGain)
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k(dst, src, n, q)
			}
		})
	}
}

func BenchmarkCopyFastPath(b *testing.B) {
	dst, src := benchBuf(8192)
	b.SetBytes(8192)
	for i := 0; i < b.N; i++ {
		Process(dst, MU255, src, MU255, 8192, 1.0, false)
	}
}

func BenchmarkConvertMuToLin16(b *testing.B) {
	_, src := benchBuf(8192)
	dst := make([]byte, 16384)
	b.SetBytes(8192)
	for i := 0; i < b.N; i++ {
		Convert(dst, LIN16, src, MU255, 8192)
	}
}

func BenchmarkGainMuLaw(b *testing.B) {
	dst, _ := benchBuf(8192)
	b.SetBytes(8192)
	for i := 0; i < b.N; i++ {
		ApplyGain(MU255, dst, 8192, 0.5)
	}
}

func BenchmarkADPCMEncode(b *testing.B) {
	src := make([]int16, 8192)
	for i := range src {
		src[i] = int16(i*13 - 28000)
	}
	dst := make([]byte, 4096)
	b.SetBytes(8192)
	var c ADPCMCoder
	for i := 0; i < b.N; i++ {
		c.Encode(dst, src)
	}
}

func BenchmarkADPCMDecode(b *testing.B) {
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]int16, 8192)
	b.SetBytes(8192)
	var c ADPCMCoder
	for i := 0; i < b.N; i++ {
		c.Decode(dst, src)
	}
}

func BenchmarkSwapBytesLin16(b *testing.B) {
	dst, _ := benchBuf(16384)
	b.SetBytes(16384)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SwapBytes(LIN16, dst)
	}
}

func BenchmarkSwapBytesLin32(b *testing.B) {
	dst, _ := benchBuf(16384)
	b.SetBytes(16384)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SwapBytes(LIN32, dst)
	}
}
