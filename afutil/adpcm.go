package afutil

import "audiofile/internal/sampleconv"

// ADPCMCoder compresses and expands the 4-bit ADPCM streams of the
// server's compressed conversion module (Table 2's SAMPLE_ADPCM32 role:
// two samples a byte, stateful each way) from and to little-endian LIN16
// bytes. A client playing or recording through an audio context with
// Type ADPCM4 uses one coder per direction; the zero value is the initial
// state the server's module starts from.
type ADPCMCoder = sampleconv.ADPCMCoder

// CompressADPCM compresses linear samples (an even count) with a fresh
// coder, returning the packed bytes. For streaming, keep an ADPCMCoder
// across blocks instead.
func CompressADPCM(samples []int16) []byte {
	lin := make([]byte, 2*len(samples))
	sampleconv.FromLin16(lin, sampleconv.LIN16, samples, len(samples))
	var c ADPCMCoder
	out := make([]byte, len(samples)/2)
	c.EncodeLin16(out, lin)
	return out
}

// ExpandADPCM expands packed ADPCM bytes with a fresh coder.
func ExpandADPCM(data []byte) []int16 {
	var c ADPCMCoder
	lin := make([]byte, 4*len(data))
	c.DecodeLin16(lin, data)
	out := make([]int16, 2*len(data))
	sampleconv.ToLin16(out, lin, sampleconv.LIN16, len(out))
	return out
}
