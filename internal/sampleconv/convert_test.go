package sampleconv

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func lin16Bytes(samples ...int16) []byte {
	buf := make([]byte, 2*len(samples))
	for i, s := range samples {
		binary.LittleEndian.PutUint16(buf[2*i:], uint16(s))
	}
	return buf
}

func lin16Samples(buf []byte) []int16 {
	out := make([]int16, len(buf)/2)
	for i := range out {
		out[i] = int16(binary.LittleEndian.Uint16(buf[2*i:]))
	}
	return out
}

func TestSwapBytes(t *testing.T) {
	b := []byte{1, 2, 3, 4}
	SwapBytes(LIN16, b)
	if !bytes.Equal(b, []byte{2, 1, 4, 3}) {
		t.Errorf("lin16 swap = %v", b)
	}
	b = []byte{1, 2, 3, 4, 5, 6, 7, 8}
	SwapBytes(LIN32, b)
	if !bytes.Equal(b, []byte{4, 3, 2, 1, 8, 7, 6, 5}) {
		t.Errorf("lin32 swap = %v", b)
	}
	b = []byte{9, 8}
	SwapBytes(MU255, b)
	if !bytes.Equal(b, []byte{9, 8}) {
		t.Errorf("mu-law swap changed data: %v", b)
	}
}

// TestSwapBytesPartialUnit pins the documented trailing-partial-unit
// behaviour: whole sample units are swapped, and a trailing fragment (an
// odd byte for 16-bit encodings, 1–3 bytes for 32-bit) is left untouched
// rather than being half-swapped or dropped silently.
func TestSwapBytesPartialUnit(t *testing.T) {
	b := []byte{1, 2, 3, 4, 5}
	SwapBytes(LIN16, b)
	if !bytes.Equal(b, []byte{2, 1, 4, 3, 5}) {
		t.Errorf("lin16 partial swap = %v, want [2 1 4 3 5]", b)
	}
	for tail := 1; tail <= 3; tail++ {
		b := []byte{1, 2, 3, 4, 9, 8, 7}[:4+tail]
		want := append([]byte{4, 3, 2, 1}, b[4:]...)
		SwapBytes(LIN32, b)
		if !bytes.Equal(b, want) {
			t.Errorf("lin32 partial swap (tail %d) = %v, want %v", tail, b, want)
		}
	}
	// A buffer smaller than one unit is untouched entirely.
	one := []byte{42}
	SwapBytes(LIN16, one)
	if one[0] != 42 {
		t.Errorf("sub-unit buffer changed: %v", one)
	}
}

// TestSwapBytesAllLengths cross-checks the word-at-a-time implementation
// against a byte-pair reference over every length through several words,
// covering the unrolled body, the scalar tail, and partial units.
func TestSwapBytesAllLengths(t *testing.T) {
	for _, e := range []Encoding{LIN16, LIN32} {
		unit := int(Sizes[e].BytesPerUnit)
		for n := 0; n < 67; n++ {
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = byte(i + 1)
			}
			want := append([]byte(nil), buf...)
			for i := 0; i+unit <= n; i += unit {
				for j := 0; j < unit/2; j++ {
					want[i+j], want[i+unit-1-j] = want[i+unit-1-j], want[i+j]
				}
			}
			SwapBytes(e, buf)
			if !bytes.Equal(buf, want) {
				t.Fatalf("%v len %d: got %v, want %v", e, n, buf, want)
			}
		}
	}
}

func TestSwapInvolution(t *testing.T) {
	f := func(data []byte) bool {
		for _, e := range []Encoding{LIN16, LIN32} {
			// Trim to a whole number of units.
			unit := int(Sizes[e].BytesPerUnit)
			d := append([]byte(nil), data[:len(data)/unit*unit]...)
			orig := append([]byte(nil), d...)
			SwapBytes(e, d)
			SwapBytes(e, d)
			if !bytes.Equal(d, orig) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProcessCopyFastPath(t *testing.T) {
	src := []byte{1, 2, 3, 4}
	dst := make([]byte, 4)
	n := Process(dst, MU255, src, MU255, 4, 1.0, false)
	if n != 4 || !bytes.Equal(dst, src) {
		t.Errorf("fast copy: n=%d dst=%v", n, dst)
	}
}

func TestProcessMixLin16(t *testing.T) {
	dst := lin16Bytes(100, -200, 30000)
	src := lin16Bytes(50, -50, 10000)
	Process(dst, LIN16, src, LIN16, 3, 1.0, true)
	got := lin16Samples(dst)
	want := []int16{150, -250, 32767} // last saturates
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("mix[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestProcessMixMuLaw(t *testing.T) {
	// Mixing two equal µ-law tones roughly doubles the linear value.
	v := EncodeMuLaw(1000)
	dst := []byte{v}
	src := []byte{v}
	Mix(MU255, dst, src, 1)
	got := int(DecodeMuLaw(dst[0]))
	lin := int(DecodeMuLaw(v))
	if got < 2*lin-200 || got > 2*lin+200 {
		t.Errorf("µ-law mix of %d+%d = %d", lin, lin, got)
	}
}

func TestProcessGain(t *testing.T) {
	dst := make([]byte, 4)
	src := lin16Bytes(1000, -1000)
	Process(dst, LIN16, src, LIN16, 2, 0.5, false)
	got := lin16Samples(dst)
	if got[0] != 500 || got[1] != -500 {
		t.Errorf("gain 0.5: %v", got)
	}
	// Gain that overflows must saturate.
	src = lin16Bytes(30000)
	dst = make([]byte, 2)
	Process(dst, LIN16, src, LIN16, 1, 4.0, false)
	if lin16Samples(dst)[0] != 32767 {
		t.Errorf("gain overflow = %d, want 32767", lin16Samples(dst)[0])
	}
}

func TestConvertMuToLin16(t *testing.T) {
	src := []byte{EncodeMuLaw(5000), EncodeMuLaw(-5000)}
	dst := make([]byte, 4)
	Convert(dst, LIN16, src, MU255, 2)
	got := lin16Samples(dst)
	for i, want := range []int16{DecodeMuLaw(src[0]), DecodeMuLaw(src[1])} {
		if got[i] != want {
			t.Errorf("convert[%d] = %d, want %d", i, got[i], want)
		}
	}
}

func TestConvertLin16ToMu(t *testing.T) {
	src := lin16Bytes(5000, -5000, 0)
	dst := make([]byte, 3)
	Convert(dst, MU255, src, LIN16, 3)
	want := []byte{EncodeMuLaw(5000), EncodeMuLaw(-5000), EncodeMuLaw(0)}
	if !bytes.Equal(dst, want) {
		t.Errorf("convert = %v, want %v", dst, want)
	}
}

func TestConvertCrossCompandFastPath(t *testing.T) {
	src := make([]byte, 256)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, 256)
	Convert(dst, ALAW, src, MU255, 256)
	for i := range src {
		if dst[i] != MuToA[i] {
			t.Errorf("mu->a[%d] = %#x, want %#x", i, dst[i], MuToA[i])
		}
	}
	Convert(dst, MU255, src, ALAW, 256)
	for i := range src {
		if dst[i] != AToMu[i] {
			t.Errorf("a->mu[%d] = %#x, want %#x", i, dst[i], AToMu[i])
		}
	}
}

func TestLin32Conversion(t *testing.T) {
	// lin16 1000 -> lin32 is 1000<<16; back down is 1000.
	src := lin16Bytes(1000)
	dst32 := make([]byte, 4)
	Convert(dst32, LIN32, src, LIN16, 1)
	v32 := int32(binary.LittleEndian.Uint32(dst32))
	if v32 != 1000<<16 {
		t.Errorf("lin16->lin32 = %d, want %d", v32, 1000<<16)
	}
	back := make([]byte, 2)
	Convert(back, LIN16, dst32, LIN32, 1)
	if lin16Samples(back)[0] != 1000 {
		t.Errorf("lin32->lin16 = %d, want 1000", lin16Samples(back)[0])
	}
}

func TestApplyGain(t *testing.T) {
	buf := lin16Bytes(100, -100)
	ApplyGain(LIN16, buf, 2, 2.0)
	got := lin16Samples(buf)
	if got[0] != 200 || got[1] != -200 {
		t.Errorf("ApplyGain: %v", got)
	}
	// Unity gain must not change data.
	orig := append([]byte(nil), buf...)
	ApplyGain(LIN16, buf, 2, 1.0)
	if !bytes.Equal(buf, orig) {
		t.Error("unity gain changed data")
	}
}

func TestToFromLin16(t *testing.T) {
	in := []int16{0, 1, -1, 32767, -32768, 12345}
	enc := make([]byte, 12)
	FromLin16(enc, LIN16, in, len(in))
	out := make([]int16, len(in))
	ToLin16(out, enc, LIN16, len(in))
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("lin16 roundtrip[%d] = %d, want %d", i, out[i], in[i])
		}
	}
}

// Property: mixing is commutative in the linear domain for lin16.
func TestQuickMixCommutative(t *testing.T) {
	f := func(a, b int16) bool {
		d1 := lin16Bytes(a)
		s1 := lin16Bytes(b)
		Mix(LIN16, d1, s1, 1)
		d2 := lin16Bytes(b)
		s2 := lin16Bytes(a)
		Mix(LIN16, d2, s2, 1)
		return bytes.Equal(d1, d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mixing silence into a buffer leaves lin16 data unchanged.
func TestQuickMixSilenceIdentity(t *testing.T) {
	f := func(a int16) bool {
		d := lin16Bytes(a)
		s := lin16Bytes(0)
		Mix(LIN16, d, s, 1)
		return lin16Samples(d)[0] == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestADPCMRoundTrip(t *testing.T) {
	// A slow sine is tracked closely by ADPCM.
	n := 2048
	src := make([]int16, n)
	for i := range src {
		src[i] = int16(8000 * math.Sin(2*math.Pi*float64(i)/128))
	}
	var enc, dec ADPCMCoder
	comp := make([]byte, n/2)
	enc.Encode(comp, src)
	out := make([]int16, n)
	dec.Decode(out, comp)
	// Skip the adaptation ramp, then require small relative error.
	var worst int
	for i := 256; i < n; i++ {
		d := int(src[i]) - int(out[i])
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	if worst > 1200 {
		t.Errorf("ADPCM worst error = %d, want <= 1200", worst)
	}
}

func TestADPCMStateReset(t *testing.T) {
	var c ADPCMCoder
	src := []int16{100, 200, 300, 400}
	buf1 := make([]byte, 2)
	c.Encode(buf1, src)
	c.Reset()
	buf2 := make([]byte, 2)
	c.Encode(buf2, src)
	if !bytes.Equal(buf1, buf2) {
		t.Error("Reset did not restore initial state")
	}
}

// TestADPCMEncodeInPlace: coding a LIN16 buffer into its own front, as
// the server's record path does, makes the bytes and the coder state a
// separate output would.
func TestADPCMEncodeInPlace(t *testing.T) {
	lin := make([]byte, 4096)
	for i := 0; i < len(lin)/2; i++ {
		binary.LittleEndian.PutUint16(lin[2*i:], uint16(int16(9000*math.Sin(float64(i)/7))))
	}
	var apart, inPlace ADPCMCoder
	want := make([]byte, len(lin)/4)
	apart.EncodeLin16(want, lin)
	n := inPlace.EncodeLin16(lin, lin)
	if !bytes.Equal(lin[:n], want) || inPlace != apart {
		t.Error("coding in place differs from coding into a separate buffer")
	}
}

func TestADPCMDecodeDeterministic(t *testing.T) {
	f := func(data []byte) bool {
		var d1, d2 ADPCMCoder
		o1 := make([]int16, 2*len(data))
		o2 := make([]int16, 2*len(data))
		d1.Decode(o1, data)
		d2.Decode(o2, data)
		for i := range o1 {
			if o1[i] != o2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/adpcm_*.hex from this build's output")

// TestADPCMGolden pins the coder's exact output, which the error bound
// and determinism tests above leave free: the bytes one encoder makes of
// a sine, full-scale steps and silence in sequence (the predictor state
// carrying across them), and the samples one decoder makes of fixed
// pseudo-random bytes. The rounded sine is the same on amd64 and 386,
// where CI runs the suite. The golden files were captured from the
// encoder that kept its own copy of the predictor update;
// -update-golden rewrites them.
func TestADPCMGolden(t *testing.T) {
	var src []int16
	for i := 0; i < 512; i++ {
		src = append(src, int16(math.Round(12000*math.Sin(2*math.Pi*float64(i)/37))))
	}
	for i := 0; i < 256; i++ {
		v := int16(math.MaxInt16)
		if i/16%2 == 1 {
			v = math.MinInt16
		}
		src = append(src, v)
	}
	src = append(src, make([]int16, 128)...)
	var enc ADPCMCoder
	comp := make([]byte, len(src)/2)
	enc.Encode(comp, src)
	checkADPCMGolden(t, "adpcm_encode.hex", comp)

	data := make([]byte, 512)
	x := uint32(1993)
	for i := range data {
		x = x*1664525 + 1013904223
		data[i] = byte(x >> 24)
	}
	var dec ADPCMCoder
	out := make([]int16, 2*len(data))
	dec.Decode(out, data)
	raw := make([]byte, 2*len(out))
	for i, s := range out {
		binary.LittleEndian.PutUint16(raw[2*i:], uint16(s))
	}
	checkADPCMGolden(t, "adpcm_decode.hex", raw)
}

func checkADPCMGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Errorf("%s: %d bytes differ from the golden's %d, first at byte %d", name, len(got), len(want), i)
	}
}
