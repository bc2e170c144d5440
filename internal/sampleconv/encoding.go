// Package sampleconv implements the digital audio encodings used by
// AudioFile and the conversions among them: the CCITT G.711 µ-law and A-law
// companded telephone formats, 16- and 32-bit linear PCM, and an ADPCM
// compressed type. It also provides the saturating mixing and gain
// primitives the server's output model requires.
//
// µ-law and A-law are eight-bit logarithmically companded formats
// resembling 8-bit floating point, roughly equivalent to 14- and 13-bit
// linear encodings. Conversions to and from linear are table driven, as in
// the paper's utility library: decoding needs a 256-entry table, encoding a
// 16384-entry table indexed by the top bits of the linear value.
package sampleconv

import "fmt"

// Encoding identifies a sample data type (the paper's AEncodeType).
type Encoding uint8

// The encoding types from the AudioFile built-in atoms (Table 2).
const (
	MU255  Encoding = iota // 8-bit µ-law (G.711, US telephony)
	ALAW                   // 8-bit A-law (G.711, European telephony)
	LIN16                  // 16-bit two's complement linear
	LIN32                  // 32-bit two's complement linear
	ADPCM4                 // 4-bit ADPCM (stand-in for the paper's ADPCM32)
	numEncodings
)

// Info describes the framing of an encoding, mirroring the paper's
// AFSampleTypes structure. Encodings with sub-byte samples (ADPCM4) pack
// multiple samples per unit.
type Info struct {
	BitsPerSamp  uint   // only a hint, per the paper
	BytesPerUnit uint   // size of the smallest addressable unit
	SampsPerUnit uint   // samples in one unit
	Name         string // printable name
}

// Sizes is the encoding information table (the paper's AF_sample_sizes).
var Sizes = [numEncodings]Info{
	MU255:  {8, 1, 1, "MU255"},
	ALAW:   {8, 1, 1, "ALAW"},
	LIN16:  {16, 2, 1, "LIN16"},
	LIN32:  {32, 4, 1, "LIN32"},
	ADPCM4: {4, 1, 2, "ADPCM4"},
}

// Valid reports whether e names a known encoding.
func (e Encoding) Valid() bool { return e < numEncodings }

// String returns the encoding's printable name.
func (e Encoding) String() string {
	if !e.Valid() {
		return fmt.Sprintf("Encoding(%d)", uint8(e))
	}
	return Sizes[e].Name
}

// BytesPerUnit returns the bytes occupied by one unit of e, which holds
// one sample except in ADPCM4; an unknown encoding counts one byte.
func (e Encoding) BytesPerUnit() int {
	if !e.Valid() {
		return 1
	}
	return int(Sizes[e].BytesPerUnit)
}

// BytesPerSamples returns the number of bytes occupied by n samples of a
// single channel in encoding e. n must be a multiple of SampsPerUnit.
func (e Encoding) BytesPerSamples(n int) int {
	info := Sizes[e]
	return n / int(info.SampsPerUnit) * int(info.BytesPerUnit)
}

// Frames returns the whole frames that n bytes of e with ch channels hold,
// BytesPerSamples inverted: one byte of mono ADPCM4 holds two. Like
// BytesPerUnit it is total: an unknown encoding holds a sample a byte,
// and fewer than one channel counts as one.
func (e Encoding) Frames(n, ch int) int {
	spu := 1
	if e.Valid() {
		spu = int(Sizes[e].SampsPerUnit)
	}
	return n / (e.BytesPerUnit() * max(ch, 1)) * spu
}

// G.711 constants.
const (
	muBias = 0x84  // µ-law bias (132)
	muClip = 32635 // µ-law clipping level before companding
)

// Decode tables: 256-entry companded-to-linear maps (the paper's AF_exp_u
// and AF_exp_a, widened to 16-bit linear like AF_cvt_u2s).
var (
	MuToLin [256]int16
	AToLin  [256]int16

	// Encode tables: 16384-entry linear-to-companded maps indexed by the top
	// 14 bits of the 16-bit linear value (the paper's AF_comp_u, AF_comp_a;
	// "tables for conversion from linear to µ-law or A-law require 16,384
	// bytes").
	LinToMu [16384]byte
	LinToA  [16384]byte

	// Cross-companding tables (AF_cvt_u2a, AF_cvt_a2u).
	MuToA [256]byte
	AToMu [256]byte
)

func init() {
	for i := 0; i < 256; i++ {
		MuToLin[i] = muLawDecode(byte(i))
		AToLin[i] = aLawDecode(byte(i))
	}
	for i := 0; i < 16384; i++ {
		lin := int16(i << 2) // sign-extend the top 14 bits
		LinToMu[i] = muLawEncode(int(lin))
		LinToA[i] = aLawEncode(int(lin))
	}
	for i := 0; i < 256; i++ {
		MuToA[i] = EncodeALaw(MuToLin[i])
		AToMu[i] = EncodeMuLaw(AToLin[i])
	}
}

// muLawDecode expands one µ-law byte to 16-bit linear.
func muLawDecode(u byte) int16 {
	u = ^u
	t := (int(u&0x0F) << 3) + muBias
	t <<= (u & 0x70) >> 4
	if u&0x80 != 0 {
		return int16(muBias - t)
	}
	return int16(t - muBias)
}

// muLawEncode compands a linear value (full 16-bit range) to µ-law.
func muLawEncode(pcm int) byte {
	var mask int
	pcm >>= 2 // 14-bit magnitude domain
	if pcm < 0 {
		pcm = -pcm
		mask = 0x7F
	} else {
		mask = 0xFF
	}
	if pcm > muClip>>2 {
		pcm = muClip >> 2
	}
	pcm += muBias >> 2
	seg := segment(pcm, muSegEnd[:])
	if seg >= 8 {
		return byte(0x7F ^ mask)
	}
	uval := (seg << 4) | ((pcm >> (seg + 1)) & 0x0F)
	return byte(uval ^ mask)
}

// aLawDecode expands one A-law byte to 16-bit linear.
func aLawDecode(a byte) int16 {
	a ^= 0x55
	t := int(a&0x0F) << 4
	seg := (int(a) & 0x70) >> 4
	switch seg {
	case 0:
		t += 8
	case 1:
		t += 0x108
	default:
		t += 0x108
		t <<= seg - 1
	}
	if a&0x80 != 0 {
		return int16(t)
	}
	return int16(-t)
}

// aLawEncode compands a linear value (full 16-bit range) to A-law.
func aLawEncode(pcm int) byte {
	var mask int
	pcm >>= 3 // 13-bit domain
	if pcm >= 0 {
		mask = 0xD5
	} else {
		mask = 0x55
		pcm = -pcm - 1
	}
	seg := segment(pcm, aSegEnd[:])
	if seg >= 8 {
		return byte(0x7F ^ mask)
	}
	aval := seg << 4
	if seg < 2 {
		aval |= (pcm >> 1) & 0x0F
	} else {
		aval |= (pcm >> seg) & 0x0F
	}
	return byte(aval ^ mask)
}

var muSegEnd = [8]int{0x3F, 0x7F, 0xFF, 0x1FF, 0x3FF, 0x7FF, 0xFFF, 0x1FFF}
var aSegEnd = [8]int{0x1F, 0x3F, 0x7F, 0xFF, 0x1FF, 0x3FF, 0x7FF, 0xFFF}

func segment(val int, table []int) int {
	for i, end := range table {
		if val <= end {
			return i
		}
	}
	return len(table)
}

// DecodeMuLaw expands one µ-law byte to 16-bit linear via table lookup.
func DecodeMuLaw(u byte) int16 { return MuToLin[u] }

// EncodeMuLaw compands a 16-bit linear value to µ-law via table lookup.
func EncodeMuLaw(pcm int16) byte { return LinToMu[uint16(pcm)>>2] }

// EncodeALaw compands a 16-bit linear value to A-law via table lookup.
func EncodeALaw(pcm int16) byte { return LinToA[uint16(pcm)>>2] }

// SilenceByte returns the byte value representing a silent sample in
// byte-oriented encodings; for multi-byte linear encodings silence is the
// zero value and this returns 0.
func (e Encoding) SilenceByte() byte {
	switch e {
	case MU255:
		return EncodeMuLaw(0) // 0xFF
	case ALAW:
		return EncodeALaw(0) // 0xD5
	default:
		return 0
	}
}

// Silence fills buf with silent sample data in encoding e.
func Silence(e Encoding, buf []byte) { Fill(buf, e.SilenceByte()) }

// Fill sets every byte of buf to v. It is the one byte-fill in the
// server: it seeds the first byte and doubles the filled prefix with copy,
// so a silence fill runs at memmove speed rather than a byte per
// iteration (the compiler only turns a store loop into memclr for zero,
// and µ-law silence is 0xFF).
func Fill(buf []byte, v byte) {
	if len(buf) == 0 {
		return
	}
	buf[0] = v
	for n := 1; n < len(buf); n *= 2 {
		copy(buf[n:], buf[:n])
	}
}

// Clamp16 saturates a wide sum to the 16-bit linear range.
func Clamp16(v int) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}
