package sampleconv

import (
	"encoding/binary"
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

// mixSizes are the ledger's payload sizes.
var mixSizes = []int{64, 8 << 10, 24 << 10}

// mixOp readies one unity mix of size bytes through k on the ledger's kind
// of payload (seeded rng.Read, as bench/ generates it). dst is restored
// from a pristine copy before every call: mixing into the same dst settles
// every sample at the clip level within a few dozen calls, and from then
// on the benchmark times a handful of table rows. The restoring copy is
// inside the timed call (a memmove of the size, ~2 % of the table kernel)
// because stopping the timer around it costs more than it does.
func mixOp(e Encoding, k Kernel, size int) func() {
	rng := rand.New(rand.NewSource(1))
	pristine, src := make([]byte, size), make([]byte, size)
	rng.Read(pristine)
	rng.Read(src)
	dst := make([]byte, size)
	n := e.Frames(size, 1)
	return func() {
		copy(dst, pristine)
		k(dst, src, n, GainUnity)
	}
}

// mixKernels are the gated mix kernels: the µ-law unity mix as
// SelectKernel hands it out, its AVX2 twin and its table twin, which call
// those tiers directly, so on a CPU with the vector paths the three are
// the before/after (a twin the CPU lacks is the table, and under -tags
// purego all three are equal); the lin16 unity mix, a reference closure; and
// the retained scalar pipeline, the before/after of the kernel layer. A
// function, because the kernels exist only once init has built the tables.
func mixKernels() []mixKernel {
	avx2 := muMixScalar
	for _, tier := range mixTiers() {
		if tier.name == "AVX2" {
			avx2 = tier.k
		}
	}
	return []mixKernel{
		{"MuLaw", MU255, SelectKernel(MU255, MU255, true, false)},
		{"MuLawAVX2", MU255, avx2},
		{"MuLawTable", MU255, muMixScalar},
		{"Lin16", LIN16, SelectKernel(LIN16, LIN16, true, false)},
		{"MuLawReference", MU255, func(dst, src []byte, n int, q int32) {
			referenceProcess(dst, MU255, src, MU255, n, q, true)
		}},
	}
}

type mixKernel struct {
	name string
	enc  Encoding
	k    Kernel
}

// benchMix times mixKernels()[i] at every mix size.
func benchMix(b *testing.B, i int) {
	mk := mixKernels()[i]
	for _, size := range mixSizes {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			op := mixOp(mk.enc, mk.k, size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

func BenchmarkMixMuLaw(b *testing.B)          { benchMix(b, 0) }
func BenchmarkMixMuLawAVX2(b *testing.B)      { benchMix(b, 1) }
func BenchmarkMixMuLawTable(b *testing.B)     { benchMix(b, 2) }
func BenchmarkMixLin16(b *testing.B)          { benchMix(b, 3) }
func BenchmarkMixMuLawReference(b *testing.B) { benchMix(b, 4) }

// kernelCases are the copy kernel and shapes the reference closures
// serve, at 8192 samples. The µ-law and lin16 unity mixes are
// mixKernels.
var kernelCases = []kernelCase{
	{"mu_copy", MU255, MU255, false, false, 1.0},
	{"a_mix", ALAW, ALAW, true, false, 1.0},
	{"mu_gain", MU255, MU255, false, true, 0.5},
	{"mu_gain_mix", MU255, MU255, true, true, 0.5},
	{"lin16_gain", LIN16, LIN16, false, true, 0.5},
	{"lin16_gain_mix", LIN16, LIN16, true, true, 0.5},
	{"mu_to_a", ALAW, MU255, false, false, 1.0},
	{"mu_to_lin16", LIN16, MU255, false, false, 1.0},
	{"lin16_to_mu", MU255, LIN16, false, false, 1.0},
	{"lin32_mix", LIN32, MU255, true, false, 1.0},
	{"mu_to_lin16_gain_mix", LIN16, MU255, true, true, 0.5},
}

type kernelCase struct {
	name           string
	dstEnc, srcEnc Encoding
	mix, hasGain   bool
	gain           float64
}

// kernelSamples is the samples one kernelCase call converts.
const kernelSamples = 8192

// ready returns one call of the case's kernel and the source bytes it
// reads.
func (kc kernelCase) ready() (op func(), bytes int) {
	src := make([]byte, kc.srcEnc.BytesPerSamples(kernelSamples))
	dst := make([]byte, kc.dstEnc.BytesPerSamples(kernelSamples))
	for i := range src {
		src[i] = byte(i*7 + 1)
	}
	for i := range dst {
		dst[i] = byte(i * 3)
	}
	q := GainQ16(kc.gain)
	k := SelectKernel(kc.dstEnc, kc.srcEnc, kc.mix, kc.hasGain)
	return func() { k(dst, src, kernelSamples, q) }, len(src)
}

// BenchmarkKernel exercises each of kernelCases through SelectKernel; the
// streaming hot path must not allocate in steady state (allocs_test.go).
func BenchmarkKernel(b *testing.B) {
	for _, kc := range kernelCases {
		b.Run(kc.name, func(b *testing.B) {
			op, bytes := kc.ready()
			b.SetBytes(int64(bytes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

func BenchmarkADPCMEncode(b *testing.B) {
	src := make([]byte, 2*8192)
	for i := 0; i < 8192; i++ {
		binary.LittleEndian.PutUint16(src[2*i:], uint16(int16(i*13-28000)))
	}
	dst := make([]byte, 4096)
	b.SetBytes(8192)
	var c ADPCMCoder
	for i := 0; i < b.N; i++ {
		c.EncodeLin16(dst, src)
	}
}

func BenchmarkADPCMDecode(b *testing.B) {
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, 2*8192)
	b.SetBytes(8192)
	var c ADPCMCoder
	for i := 0; i < b.N; i++ {
		c.DecodeLin16(dst, src)
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
