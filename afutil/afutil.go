// Package afutil is the AudioFile client utility library (libAFUtil): the
// conversion, mixing, gain, power and sine tables of Table 5, and the
// signal-generation and helper procedures of Table 6 — tone pairs for
// telephony (Table 7), precise sine generation by direct digital
// synthesis, silence, block power measurement, Touch-Tone dialing, and
// the AoD assertion helper.
package afutil

import (
	"fmt"
	"math"
	"os"
	"sync"

	"audiofile/internal/dsp"
	"audiofile/internal/sampleconv"
)

// Conversion tables (Table 5). Indexing a table is the idiomatic
// high-speed path for µ-law and A-law processing; converting
// algorithmically is possible but time consuming.
var (
	// ExpU expands µ-law to 16-bit linear (AF_exp_u widened, AF_cvt_u2s).
	ExpU = &sampleconv.MuToLin
	// ExpA expands A-law to 16-bit linear (AF_exp_a widened).
	ExpA = &sampleconv.AToLin
	// CompU compands 16-bit linear (top 14 bits) to µ-law (AF_comp_u).
	CompU = &sampleconv.LinToMu
	// CompA compands 16-bit linear (top 14 bits) to A-law (AF_comp_a).
	CompA = &sampleconv.LinToA
	// CvtU2A translates µ-law to A-law (AF_cvt_u2a).
	CvtU2A = &sampleconv.MuToA
	// CvtA2U translates A-law to µ-law (AF_cvt_a2u).
	CvtA2U = &sampleconv.AToMu
)

// PowerU translates µ-law values to the square of the corresponding
// linear value (AF_power_uf).
var PowerU [256]float64

// PowerA translates A-law values to the square of the corresponding
// linear value (AF_power_af).
var PowerA [256]float64

// SineSize is the length of the sine wave tables.
const SineSize = 1024

// SineInt is a 1024-entry 16-bit integer sine wave table (AF_sine_int).
var SineInt [SineSize]int16

// SineFloat is a 1024-entry floating point sine wave table
// (AF_sine_float).
var SineFloat [SineSize]float64

func init() {
	for i := 0; i < 256; i++ {
		u := float64(sampleconv.MuToLin[i])
		a := float64(sampleconv.AToLin[i])
		PowerU[i] = u * u
		PowerA[i] = a * a
	}
	for i := range SineFloat {
		v := math.Sin(2 * math.Pi * float64(i) / SineSize)
		SineFloat[i] = v
		SineInt[i] = int16(32767 * v)
	}
}

// MixU mixes two µ-law samples with linear-domain saturation (AF_mix_u).
func MixU(a, b byte) byte {
	return sampleconv.EncodeMuLaw(sampleconv.Clamp16(
		int(sampleconv.MuToLin[a]) + int(sampleconv.MuToLin[b])))
}

// MixA mixes two A-law samples with linear-domain saturation (AF_mix_a).
func MixA(a, b byte) byte {
	return sampleconv.EncodeALaw(sampleconv.Clamp16(
		int(sampleconv.AToLin[a]) + int(sampleconv.AToLin[b])))
}

// GainTableRange bounds the precomputed gain tables: -30 dB to +30 dB.
const GainTableRange = 30

// gainTables are the 61 precomputed tables of each law, computed together
// on first use, once, however many goroutines ask.
var (
	gainTablesU = sync.OnceValue(func() *[2*GainTableRange + 1][256]byte {
		return gainTables(MakeGainTableU)
	})
	gainTablesA = sync.OnceValue(func() *[2*GainTableRange + 1][256]byte {
		return gainTables(MakeGainTableA)
	})
)

func gainTables(mk func(float64) *[256]byte) *[2*GainTableRange + 1][256]byte {
	var t [2*GainTableRange + 1][256]byte
	for i := range t {
		t[i] = *mk(float64(i - GainTableRange))
	}
	return &t
}

// MakeGainTableU computes a µ-law-to-µ-law gain translation table for an
// arbitrary gain in dB (AFMakeGainTableU), for gains outside the
// precomputed range or callers short on memory for all 61 tables.
func MakeGainTableU(gainDB float64) *[256]byte {
	return makeGainTable(gainDB, sampleconv.MuToLin[:], sampleconv.EncodeMuLaw)
}

// MakeGainTableA computes an A-law gain translation table
// (AFMakeGainTableA).
func MakeGainTableA(gainDB float64) *[256]byte {
	return makeGainTable(gainDB, sampleconv.AToLin[:], sampleconv.EncodeALaw)
}

func makeGainTable(gainDB float64, exp []int16, comp func(int16) byte) *[256]byte {
	g := math.Pow(10, gainDB/20)
	var t [256]byte
	for i := 0; i < 256; i++ {
		t[i] = comp(sampleconv.Clamp16(int(g * float64(exp[i]))))
	}
	return &t
}

// GainTableU returns the precomputed µ-law gain table for an integer dB
// gain in [-30, +30] (AF_gain_table_u).
func GainTableU(gainDB int) *[256]byte { return &gainTablesU()[gainIndex(gainDB)] }

// GainTableA returns the precomputed A-law gain table for an integer dB
// gain in [-30, +30] (AF_gain_table_a).
func GainTableA(gainDB int) *[256]byte { return &gainTablesA()[gainIndex(gainDB)] }

func gainIndex(gainDB int) int {
	if gainDB < -GainTableRange || gainDB > GainTableRange {
		panic(fmt.Sprintf("afutil: gain %d dB outside table range", gainDB))
	}
	return gainDB + GainTableRange
}

// SampleType describes the framing of an encoding (AFSampleTypes).
type SampleType = sampleconv.Info

// SampleSizes is the datatype information table (AF_sample_sizes),
// indexed by encoding value: a copy, so a client in the server's process
// cannot edit the server's table.
var SampleSizes = append([]SampleType(nil), sampleconv.Sizes[:]...)

// Silence fills buf with silence for the given encoding value
// (AFSilence). 0 is µ-law, 1 A-law, 2 lin16, 3 lin32.
func Silence(encoding uint8, buf []byte) {
	sampleconv.Silence(sampleconv.Encoding(encoding), buf)
}

// PowerMu returns the mean power of a µ-law block in dBm relative to the
// digital milliwatt (the apower computation). Silence returns -Inf.
func PowerMu(block []byte) float64 {
	if len(block) == 0 {
		return math.Inf(-1)
	}
	var sum float64
	for _, b := range block {
		sum += PowerU[b]
	}
	return dsp.MeanSquareDBm(sum / float64(len(block)))
}

// PowerLin16 returns the mean power of a linear block in dBm re the
// digital milliwatt.
func PowerLin16(block []int16) float64 {
	return dsp.PowerDBm(block)
}

// AoD is "Assert Or Die": if the condition is false, print the message
// and exit (the library's common error idiom).
func AoD(cond bool, format string, args ...any) {
	if cond {
		return
	}
	fmt.Fprintf(os.Stderr, format, args...)
	os.Exit(1)
}
