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
	n := e.SamplesPerBytes(size)
	return func() {
		copy(dst, pristine)
		k(dst, src, n, GainUnity)
	}
}

// mixKernels are the gated mix kernels: the µ-law unity mix as
// SelectKernel hands it out and its table twin, which calls the table loop
// directly, so on a CPU with the vector path the pair is the before/after
// (under -tags purego the two are equal); the lin16 unity mix; and the
// retained scalar pipeline, the before/after of the kernel layer. A
// function, because the kernels exist only once init has built the tables.
func mixKernels() []mixKernel {
	return []mixKernel{
		{"MuLaw", MU255, SelectKernel(MU255, MU255, true, false)},
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
func BenchmarkMixMuLawTable(b *testing.B)     { benchMix(b, 1) }
func BenchmarkMixLin16(b *testing.B)          { benchMix(b, 2) }
func BenchmarkMixMuLawReference(b *testing.B) { benchMix(b, 3) }

// kernelCases are every other specialized kernel shape SelectKernel hands
// out, at 8192 samples. The µ-law and lin16 unity mixes are mixKernels.
var kernelCases = []kernelCase{
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
