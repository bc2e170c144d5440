package main

import (
	"math"
	"testing"

	"audiofile/af"
	"audiofile/afutil"
	"audiofile/internal/sampleconv"
)

// TestBlockPowerDecodesDeviceEncoding measures one tone recorded in each
// device encoding: every reading must match the lin16 block's, and the
// µ-law reading must be apower's exactly.
func TestBlockPowerDecodesDeviceEncoding(t *testing.T) {
	const n = 1000
	lin := make([]int16, n)
	for i := range lin {
		lin[i] = int16(8000 * math.Sin(2*math.Pi*float64(i)/40))
	}
	want := afutil.PowerLin16(lin)
	for _, enc := range []af.Encoding{af.MU255, af.ALAW, af.LIN16, af.LIN32} {
		block := make([]byte, n*enc.BytesPerUnit())
		sampleconv.FromLin16(block, enc, lin, n)
		if got := blockPower(enc, block); math.Abs(got-want) > 0.1 {
			t.Errorf("%v: %.2f dBm, want %.2f", enc, got, want)
		}
		if enc == af.MU255 && blockPower(enc, block) != afutil.PowerMu(block) {
			t.Errorf("µ-law: %.4f dBm, apower reads %.4f", blockPower(enc, block), afutil.PowerMu(block))
		}
	}
}
