// Package atime implements AudioFile device time: a 32-bit unsigned counter
// that increments once per sample period and wraps on overflow.
//
// Because the counter wraps, two times cannot be compared directly. All
// possible values are divided into equally sized "past" and "future" regions
// relative to a reference time t: any time from t clockwise to t+2^31 is
// after t, and the other half circle is before t. Comparisons are made with
// two's complement subtraction, exactly as the paper prescribes:
//
//	if ((int)(b - a) > 0)  /* time b is later than time a */
//
// Time values are specific to a particular audio device; there is no
// absolute reference. Callers must not compare times separated by close to
// 2^31 samples (about 12 hours at 48 kHz, 3 days at 8 kHz).
package atime

// ATime is an audio device time in sample ticks. It wraps modulo 2^32.
type ATime uint32

// After reports whether b is strictly later than a in wrapped time.
func After(b, a ATime) bool { return int32(b-a) > 0 }

// Before reports whether b is strictly earlier than a in wrapped time.
func Before(b, a ATime) bool { return int32(b-a) < 0 }

// Sub returns the signed distance b-a in sample ticks. The result is
// positive when b is later than a and negative when earlier.
func Sub(b, a ATime) int32 { return int32(b - a) }

// Add returns t advanced by n ticks; n may be negative.
func Add(t ATime, n int) ATime { return t + ATime(int32(n)) }

// Add returns t advanced by n ticks (n may be negative), as Add(t, n).
func (t ATime) Add(n int) ATime { return Add(t, n) }

// Min returns the earlier of a and b.
func Min(a, b ATime) ATime {
	if Before(a, b) {
		return a
	}
	return b
}

// Max returns the later of a and b.
func Max(a, b ATime) ATime {
	if After(a, b) {
		return a
	}
	return b
}

// ClipSpan clips the n-tick span starting at t against the window
// [lo, hi): the first skip ticks of the span fall before the window, the
// next in ticks inside it, and the remaining n-skip-in after it. A span
// wholly before the window returns (n, 0), one wholly after it (0, 0). It
// assumes lo is not after hi; like every comparison here it is exact while
// t stays within 2^31 ticks of the window.
func ClipSpan(t ATime, n int, lo, hi ATime) (skip, in int) {
	skip = min(max(int(Sub(lo, t)), 0), n)
	end := min(max(int(Sub(hi, t)), skip), n)
	return skip, end - skip
}
