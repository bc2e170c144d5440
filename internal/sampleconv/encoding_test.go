package sampleconv

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestMuLawKnownValues(t *testing.T) {
	// Silence is 0xFF in µ-law (encode of 0 with positive mask).
	if got := EncodeMuLaw(0); got != 0xFF {
		t.Errorf("EncodeMuLaw(0) = %#x, want 0xff", got)
	}
	if got := DecodeMuLaw(0xFF); got != 0 {
		t.Errorf("DecodeMuLaw(0xff) = %d, want 0", got)
	}
	// Maximum magnitude decodes to ±(MuMax).
	if got := DecodeMuLaw(0x80); got != MuMax {
		t.Errorf("DecodeMuLaw(0x80) = %d, want %d", got, MuMax)
	}
	if got := DecodeMuLaw(0x00); got != -MuMax {
		t.Errorf("DecodeMuLaw(0x00) = %d, want %d", got, -MuMax)
	}
}

func TestALawKnownValues(t *testing.T) {
	if got := EncodeALaw(0); got != 0xD5 {
		t.Errorf("EncodeALaw(0) = %#x, want 0xd5", got)
	}
	// 0xD5 ^ 0x55 = 0x80: seg 0, mantissa 0, positive -> +8.
	if got := DecodeALaw(0xD5); got != 8 {
		t.Errorf("DecodeALaw(0xd5) = %d, want 8", got)
	}
	if got := DecodeALaw(0xAA); got != AMax {
		t.Errorf("DecodeALaw(0xaa) = %d, want %d", got, AMax)
	}
}

// Property: decode(encode(x)) is within companding quantization error of x,
// and the error bound grows with magnitude (logarithmic companding).
func TestQuickMuLawRoundTrip(t *testing.T) {
	f := func(x int16) bool {
		y := int(DecodeMuLaw(EncodeMuLaw(x)))
		diff := int(x) - y
		if diff < 0 {
			diff = -diff
		}
		mag := int(x)
		if mag < 0 {
			mag = -mag
		}
		// µ-law worst-case quantization error: half the largest step
		// (256 in the top segment) plus clipping above MuMax.
		bound := mag/16 + 36
		return diff <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestQuickALawRoundTrip(t *testing.T) {
	f := func(x int16) bool {
		y := int(DecodeALaw(EncodeALaw(x)))
		diff := int(x) - y
		if diff < 0 {
			diff = -diff
		}
		mag := int(x)
		if mag < 0 {
			mag = -mag
		}
		bound := mag/16 + 520 // A-law has a larger minimum step (16) and clips at AMax
		return diff <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: encode(decode(b)) == b for every companded byte (the decode
// values are exact codebook centers).
func TestCompandedIdempotent(t *testing.T) {
	for i := 0; i < 256; i++ {
		b := byte(i)
		got := EncodeMuLaw(DecodeMuLaw(b))
		// 0x7F is µ-law "negative zero"; it decodes to 0, which re-encodes
		// as positive zero 0xFF. Every other code round-trips exactly.
		if b == 0x7F {
			if got != 0xFF {
				t.Errorf("µ-law negative zero re-encoded as %#x, want 0xff", got)
			}
			continue
		}
		if got != b {
			t.Errorf("µ-law encode(decode(%#x)) = %#x", b, got)
		}
		if got := EncodeALaw(DecodeALaw(b)); got != b {
			t.Errorf("A-law encode(decode(%#x)) = %#x", b, got)
		}
	}
}

func TestMonotonicDecode(t *testing.T) {
	// Positive µ-law codes 0xFF (zero) down to 0x80 (max) decode to
	// non-decreasing linear values.
	prev := int16(math.MinInt16)
	for code := 0xFF; code >= 0x80; code-- {
		v := DecodeMuLaw(byte(code))
		if v < prev {
			t.Fatalf("µ-law decode not monotonic at %#x: %d < %d", code, v, prev)
		}
		prev = v
	}
}

func TestCrossCompanding(t *testing.T) {
	for i := 0; i < 256; i++ {
		u := byte(i)
		want := EncodeALaw(DecodeMuLaw(u))
		if MuToA[u] != want {
			t.Errorf("MuToA[%#x] = %#x, want %#x", u, MuToA[u], want)
		}
		a := byte(i)
		want = EncodeMuLaw(DecodeALaw(a))
		if AToMu[a] != want {
			t.Errorf("AToMu[%#x] = %#x, want %#x", a, AToMu[a], want)
		}
	}
}

func TestSilence(t *testing.T) {
	buf := make([]byte, 8)
	Silence(MU255, buf)
	for _, b := range buf {
		if b != 0xFF {
			t.Fatalf("µ-law silence byte = %#x, want 0xff", b)
		}
	}
	Silence(LIN16, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatalf("lin16 silence byte = %#x, want 0", b)
		}
	}
	// Silence must decode to (near) zero.
	if v := DecodeMuLaw(0xFF); v != 0 {
		t.Errorf("µ-law silence decodes to %d", v)
	}
	if v := DecodeALaw(0xD5); v != 8 {
		t.Errorf("A-law silence decodes to %d, want 8 (smallest positive)", v)
	}
}

func TestEncodingInfo(t *testing.T) {
	cases := []struct {
		e        Encoding
		nsamp    int
		expBytes int
	}{
		{MU255, 100, 100},
		{ALAW, 100, 100},
		{LIN16, 100, 200},
		{LIN32, 100, 400},
		{ADPCM4, 100, 50},
	}
	for _, c := range cases {
		if got := c.e.BytesPerSamples(c.nsamp); got != c.expBytes {
			t.Errorf("%v.BytesPerSamples(%d) = %d, want %d", c.e, c.nsamp, got, c.expBytes)
		}
		if got := c.e.Frames(c.expBytes, 1); got != c.nsamp {
			t.Errorf("%v.Frames(%d, 1) = %d, want %d", c.e, c.expBytes, got, c.nsamp)
		}
	}
	// Frames counts whole frames of every channel, and whole units.
	for _, c := range []struct {
		e         Encoding
		n, ch, fr int
	}{{LIN16, 203, 2, 50}, {MU255, 7, 2, 3}, {LIN32, 17, 1, 4}, {ADPCM4, 25, 1, 50},
		{Encoding(200), 7, 1, 7}, {LIN16, 8, 0, 4}} {
		if got := c.e.Frames(c.n, c.ch); got != c.fr {
			t.Errorf("%v.Frames(%d, %d) = %d, want %d", c.e, c.n, c.ch, got, c.fr)
		}
	}
	if Encoding(200).Valid() {
		t.Error("Encoding(200).Valid() = true")
	}
	if MU255.String() != "MU255" {
		t.Errorf("String = %q", MU255.String())
	}
}

func TestClamp(t *testing.T) {
	if Clamp16(40000) != 32767 || Clamp16(-40000) != -32768 || Clamp16(123) != 123 {
		t.Error("Clamp16 wrong")
	}
}

func TestFillEqualsRepeat(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 255, 4097} {
		for _, v := range []byte{0, 0xFF, 0xD5} {
			// Guard bytes either side: the fill must stay inside buf.
			back := bytes.Repeat([]byte{0x11}, n+2)
			Fill(back[1:1+n], v)
			want := append(append([]byte{0x11}, bytes.Repeat([]byte{v}, n)...), 0x11)
			if !bytes.Equal(back, want) {
				t.Errorf("Fill(%d bytes, %#x) != bytes.Repeat", n, v)
			}
		}
	}
	buf := make([]byte, 4097)
	Silence(ALAW, buf)
	if !bytes.Equal(buf, bytes.Repeat([]byte{0xD5}, len(buf))) {
		t.Error("Silence(ALAW) is not all 0xD5")
	}
}
