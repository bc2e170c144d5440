// Package dsp provides the signal-processing primitives AudioFile's
// clients and telephony simulation need: an iterative radix-2 FFT, window
// functions, the Goertzel single-bin DFT used for DTMF detection, and
// block power measurement relative to the CCITT digital milliwatt.
package dsp

import "math"

// FFT computes the in-place radix-2 decimation-in-time FFT of re/im.
// len(re) == len(im) must be a power of two. With inverse set, it computes
// the unscaled inverse transform (callers divide by N).
func FFT(re, im []float64, inverse bool) {
	n := len(re)
	if n != len(im) {
		panic("dsp: FFT length mismatch")
	}
	if n == 0 || n&(n-1) != 0 {
		panic("dsp: FFT length must be a power of two")
	}
	// Bit-reversal permutation.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
		m := n >> 1
		for m >= 1 && j&m != 0 {
			j ^= m
			m >>= 1
		}
		j |= m
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := 2 * math.Pi / float64(size) * sign
		for base := 0; base < n; base += size {
			for k := 0; k < half; k++ {
				ang := step * float64(k)
				wr, wi := math.Cos(ang), math.Sin(ang)
				i := base + k
				j := i + half
				tr := wr*re[j] - wi*im[j]
				ti := wr*im[j] + wi*re[j]
				re[j] = re[i] - tr
				im[j] = im[i] - ti
				re[i] += tr
				im[i] += ti
			}
		}
	}
}

// PowerSpectrum returns |X_k|^2 for k = 0..N/2 of the real signal x.
// len(x) must be a power of two.
func PowerSpectrum(x []float64) []float64 {
	n := len(x)
	re := make([]float64, n)
	im := make([]float64, n)
	copy(re, x)
	FFT(re, im, false)
	out := make([]float64, n/2+1)
	for k := range out {
		out[k] = re[k]*re[k] + im[k]*im[k]
	}
	return out
}

// Window identifies a window function, as selectable in the afft client.
type Window int

const (
	Rectangular Window = iota // no windowing
	Hamming
	Hanning
	Triangular
)

// Apply multiplies x by the window function in place.
func (w Window) Apply(x []float64) {
	n := len(x)
	if n < 2 {
		return
	}
	switch w {
	case Hamming:
		for i := range x {
			x[i] *= 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1))
		}
	case Hanning:
		for i := range x {
			x[i] *= 0.5 - 0.5*math.Cos(2*math.Pi*float64(i)/float64(n-1))
		}
	case Triangular:
		for i := range x {
			x[i] *= 1 - math.Abs(float64(2*i-(n-1))/float64(n-1))
		}
	}
}

// Goertzel measures the squared magnitude of the DFT bin nearest freq in
// the block x sampled at rate Hz. It is the classic single-bin detector
// used for DTMF decoding.
func Goertzel(x []float64, freq, rate float64) float64 {
	k := math.Round(float64(len(x)) * freq / rate)
	w := 2 * math.Pi * k / float64(len(x))
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	return s1*s1 + s2*s2 - coeff*s1*s2
}

// Digital milliwatt reference. The paper's power levels are in dB relative
// to the digital milliwatt, which is 3.16 dB below the digital clipping
// level (full-scale sine). For a full-scale sine of peak A, mean square is
// A^2/2; the milliwatt reference is that divided by 10^0.316.
const clipPeak = 32124 // µ-law digital clipping level in the 16-bit domain

var dmwRef = (float64(clipPeak) * float64(clipPeak) / 2) / math.Pow(10, 0.316)

// PowerDBm returns the mean power of the linear block x in dBm relative to
// the digital milliwatt. An all-silence block returns -inf.
func PowerDBm(x []int16) float64 {
	if len(x) == 0 {
		return math.Inf(-1)
	}
	var sum float64
	for _, v := range x {
		f := float64(v)
		sum += f * f
	}
	return MeanSquareDBm(sum / float64(len(x)))
}

// MeanSquareDBm returns the power of a block whose mean square is ms in
// dBm relative to the digital milliwatt; silence (ms 0) returns -inf.
func MeanSquareDBm(ms float64) float64 {
	if ms == 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(ms/dmwRef)
}

// AmplitudeForDBm returns the peak amplitude of a sine wave whose power is
// the given level in dBm re the digital milliwatt.
func AmplitudeForDBm(dbm float64) float64 {
	ms := dmwRef * math.Pow(10, dbm/10)
	return math.Sqrt(2 * ms)
}

// Sin2Pi returns sin(2πx).
func Sin2Pi(x float64) float64 { return math.Sin(2 * math.Pi * x) }
