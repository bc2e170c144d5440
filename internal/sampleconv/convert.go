package sampleconv

import (
	"encoding/binary"
	"math/bits"
)

// Sample data in wire and buffer form is a flat byte slice. Multi-byte
// linear samples are stored little-endian inside the server; requests from
// big-endian clients are byte-swapped on ingest and egress (see SwapBytes).

// SwapBytes reverses the byte order of every multi-byte sample unit in buf,
// in place, operating on whole machine words rather than byte pairs. It is
// a no-op for 8-bit encodings.
//
// A trailing partial unit (an odd byte for 16-bit encodings, 1–3 bytes for
// 32-bit) is not a whole sample and is left untouched: there is no byte
// order to reverse until the rest of the sample arrives. Callers framing
// wire data should not hand partial units here expecting them swapped.
func SwapBytes(e Encoding, buf []byte) {
	switch Sizes[e].BytesPerUnit {
	case 2:
		n := len(buf) &^ 1
		i := 0
		// Four samples per iteration: swap adjacent bytes inside a word.
		for ; i+8 <= n; i += 8 {
			v := binary.LittleEndian.Uint64(buf[i:])
			v = (v&0x00FF00FF00FF00FF)<<8 | (v>>8)&0x00FF00FF00FF00FF
			binary.LittleEndian.PutUint64(buf[i:], v)
		}
		for ; i < n; i += 2 {
			binary.LittleEndian.PutUint16(buf[i:],
				bits.ReverseBytes16(binary.LittleEndian.Uint16(buf[i:])))
		}
	case 4:
		n := len(buf) &^ 3
		for i := 0; i < n; i += 4 {
			binary.LittleEndian.PutUint32(buf[i:],
				bits.ReverseBytes32(binary.LittleEndian.Uint32(buf[i:])))
		}
	}
}

// DecodeSample reads sample unit i of buf (native little-endian) in the
// 16-bit linear domain. It is the scalar primitive behind Strided (the
// reference pipeline's loop, which the server's mono channel views run
// over one channel inside interleaved frames) and ToLin16. ADPCM4 has no
// linear interpretation here (conversion modules decompress before the
// pipeline) and decodes as zero, as does an unknown encoding.
func DecodeSample(e Encoding, buf []byte, i int) int {
	switch e {
	case MU255:
		return int(MuToLin[buf[i]])
	case ALAW:
		return int(AToLin[buf[i]])
	case LIN16:
		return int(int16(binary.LittleEndian.Uint16(buf[2*i:])))
	case LIN32:
		return int(int32(binary.LittleEndian.Uint32(buf[4*i:])) >> 16)
	}
	return 0
}

// EncodeSample writes a 16-bit-domain linear value as sample unit i of
// buf, saturating. It writes nothing for ADPCM4 or an unknown encoding.
func EncodeSample(e Encoding, buf []byte, i int, v int) {
	s := Clamp16(v)
	switch e {
	case MU255:
		buf[i] = EncodeMuLaw(s)
	case ALAW:
		buf[i] = EncodeALaw(s)
	case LIN16:
		binary.LittleEndian.PutUint16(buf[2*i:], uint16(s))
	case LIN32:
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(int32(s)<<16))
	}
}

// ToLin16 decodes nsamples of src into dst as 16-bit-domain linear values.
func ToLin16(dst []int16, src []byte, e Encoding, nsamples int) {
	for i := 0; i < nsamples; i++ {
		dst[i] = int16(DecodeSample(e, src, i))
	}
}

// FromLin16 encodes nsamples of linear values into dst in encoding e.
func FromLin16(dst []byte, e Encoding, src []int16, nsamples int) {
	for i := 0; i < nsamples; i++ {
		EncodeSample(e, dst, i, int(src[i]))
	}
}
