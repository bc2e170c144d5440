package sampleconv

import "encoding/binary"

// IMA/DVI ADPCM, 4 bits per sample. The paper lists SAMPLE_ADPCM32 (G.721,
// 32 kb/s at 8 kHz) among its encoding atoms; G.721 is proprietary in
// detail, so this implementation substitutes the freely specified IMA ADPCM
// codec, which has the same rate (4 bits/sample) and the same role: a
// stateful compressed type handled by a per-audio-context conversion module
// in the server. Two samples pack into each byte, low nibble first.

var imaIndexTable = [16]int{-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8}

var imaStepTable = [89]int{
	7, 8, 9, 10, 11, 12, 13, 14, 16, 17,
	19, 21, 23, 25, 28, 31, 34, 37, 41, 45,
	50, 55, 60, 66, 73, 80, 88, 97, 107, 118,
	130, 143, 157, 173, 190, 209, 230, 253, 279, 307,
	337, 371, 408, 449, 494, 544, 598, 658, 724, 796,
	876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
	2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358,
	5894, 6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899,
	15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
}

// ADPCMCoder holds the predictor state for one direction of an ADPCM
// stream. The zero value is a valid initial state.
type ADPCMCoder struct {
	predicted int // last predicted sample
	index     int // index into the step table
}

// Reset returns the coder to its initial state.
func (c *ADPCMCoder) Reset() { c.predicted, c.index = 0, 0 }

// encodeSample quantizes the difference from the prediction against
// step, step/2 and step/4, then moves the state as the decoder will on
// reading the nibble.
func (c *ADPCMCoder) encodeSample(s int16) byte {
	step := imaStepTable[c.index]
	diff := int(s) - c.predicted
	var nibble byte
	if diff < 0 {
		nibble = 8
		diff = -diff
	}
	if diff >= step {
		nibble |= 4
		diff -= step
	}
	step >>= 1
	if diff >= step {
		nibble |= 2
		diff -= step
	}
	step >>= 1
	if diff >= step {
		nibble |= 1
	}
	c.decodeSample(nibble)
	return nibble
}

func (c *ADPCMCoder) decodeSample(nibble byte) int16 {
	step := imaStepTable[c.index]
	vpdiff := step >> 3
	if nibble&4 != 0 {
		vpdiff += step
	}
	if nibble&2 != 0 {
		vpdiff += step >> 1
	}
	if nibble&1 != 0 {
		vpdiff += step >> 2
	}
	if nibble&8 != 0 {
		c.predicted -= vpdiff
	} else {
		c.predicted += vpdiff
	}
	c.predicted = int(Clamp16(c.predicted))
	c.index += imaIndexTable[nibble]
	if c.index < 0 {
		c.index = 0
	} else if c.index > 88 {
		c.index = 88
	}
	return int16(c.predicted)
}

// EncodeLin16 compresses LIN16 samples in native order, two bytes each,
// into ADPCM nibbles. src holds an even number of samples; dst must hold
// len(src)/4 bytes and may be src itself: byte i is written only after
// src's bytes 4i…4i+3 have been read, so a buffer is coded in place into
// its front. It returns the bytes written.
func (c *ADPCMCoder) EncodeLin16(dst, src []byte) int {
	n := len(src) / 4
	for i := 0; i < n; i++ {
		lo := c.encodeSample(int16(binary.LittleEndian.Uint16(src[4*i:])))
		hi := c.encodeSample(int16(binary.LittleEndian.Uint16(src[4*i+2:])))
		dst[i] = lo | hi<<4
	}
	return n
}

// DecodeLin16 expands ADPCM bytes into LIN16 samples in native order. dst
// must hold 4*len(src) bytes.
func (c *ADPCMCoder) DecodeLin16(dst, src []byte) {
	for i, b := range src {
		binary.LittleEndian.PutUint16(dst[4*i:], uint16(c.decodeSample(b&0x0F)))
		binary.LittleEndian.PutUint16(dst[4*i+2:], uint16(c.decodeSample(b>>4)))
	}
}
