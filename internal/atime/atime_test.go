package atime

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPaperExamples(t *testing.T) {
	// The paper's 8000 samples/second example.
	var a ATime = 100
	b := Add(a, 8000)
	if !After(b, a) {
		t.Errorf("After(%d, %d) = false, want true", b, a)
	}
	if !Before(a, b) {
		t.Errorf("Before(%d, %d) = false, want true", a, b)
	}
	if Sub(b, a) != 8000 {
		t.Errorf("Sub = %d, want 8000", Sub(b, a))
	}
}

func TestWrapAround(t *testing.T) {
	// b is just past the wrap point; a is just before it.
	a := ATime(math.MaxUint32 - 5)
	b := Add(a, 10) // wraps to 4
	if b != 4 {
		t.Fatalf("Add wrapped to %d, want 4", b)
	}
	if !After(b, a) {
		t.Errorf("After across wrap = false, want true")
	}
	if Sub(b, a) != 10 {
		t.Errorf("Sub across wrap = %d, want 10", Sub(b, a))
	}
}

func TestHalfRangeBoundary(t *testing.T) {
	var a ATime = 1000
	q := Add(a, HalfRange) // the division point
	// Exactly half the range away is "before" by the int32 rule:
	// int32(q-a) = math.MinInt32 < 0.
	if After(q, a) {
		t.Errorf("After(q, a) = true at the division point, want false")
	}
	almost := Add(a, HalfRange-1)
	if !After(almost, a) {
		t.Errorf("After(a+2^31-1, a) = false, want true")
	}
}

func TestMinMaxClamp(t *testing.T) {
	var a, b ATime = 100, 200
	if Min(a, b) != a || Min(b, a) != a {
		t.Error("Min wrong")
	}
	if Max(a, b) != b || Max(b, a) != b {
		t.Error("Max wrong")
	}
	if Clamp(50, a, b) != a {
		t.Error("Clamp below wrong")
	}
	if Clamp(250, a, b) != b {
		t.Error("Clamp above wrong")
	}
	if Clamp(150, a, b) != 150 {
		t.Error("Clamp inside wrong")
	}
}

func TestSecondsTicks(t *testing.T) {
	if got := SecondsToTicks(4, 8000); got != 32000 {
		t.Errorf("SecondsToTicks(4, 8000) = %d, want 32000", got)
	}
	if got := TicksToSeconds(32000, 8000); got != 4.0 {
		t.Errorf("TicksToSeconds = %v, want 4", got)
	}
	if got := SecondsToTicks(0.5, 48000); got != 24000 {
		t.Errorf("SecondsToTicks(0.5, 48000) = %d, want 24000", got)
	}
}

func TestCorrespondence(t *testing.T) {
	// Clock A: 8 kHz, clock B: 48 kHz, observed together at (1000, 5000).
	c := Correspondence{Ta: 1000, Tb: 5000, Ra: 8000, Rb: 48000}
	// One second later on A is 8000 ticks; on B it is 48000 ticks.
	tb := c.AtoB(Add(1000, 8000))
	if tb != Add(5000, 48000) {
		t.Errorf("AtoB = %d, want %d", tb, Add(5000, 48000))
	}
	ta := c.BtoA(Add(5000, 48000))
	if ta != Add(1000, 8000) {
		t.Errorf("BtoA = %d, want %d", ta, Add(1000, 8000))
	}
}

func TestCorrespondenceDrift(t *testing.T) {
	// Two nominal 8 kHz clocks, one 100 ppm fast. After a nominal hour the
	// conversion should differ by about 0.36 s (2880 ticks).
	c := Correspondence{Ta: 0, Tb: 0, Ra: 8000, Rb: 8000.8}
	tb := c.AtoB(8000 * 3600)
	drift := Sub(tb, 8000*3600)
	if drift < 2800 || drift > 2960 {
		t.Errorf("drift = %d ticks, want ~2880", drift)
	}
}

// Property: for any a and any displacement 0 < d < 2^31, a+d is after a.
func TestQuickAfterAdd(t *testing.T) {
	f := func(a uint32, d uint32) bool {
		dd := d % (HalfRange - 1)
		if dd == 0 {
			dd = 1
		}
		return After(Add(ATime(a), int(dd)), ATime(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Before and After are antisymmetric except at equality and the
// exact half-range point.
func TestQuickAntisymmetry(t *testing.T) {
	f := func(a, b uint32) bool {
		ta, tb := ATime(a), ATime(b)
		d := uint32(tb - ta)
		if d == 0 || d == HalfRange {
			return !After(ta, tb) || !After(tb, ta)
		}
		return After(ta, tb) != After(tb, ta)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Sub(Add(t, n), t) == n for |n| < 2^31.
func TestQuickSubAdd(t *testing.T) {
	f := func(a uint32, n int32) bool {
		return Sub(Add(ATime(a), int(n)), ATime(a)) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: correspondence round-trips within rounding error.
func TestQuickCorrespondenceRoundTrip(t *testing.T) {
	c := Correspondence{Ta: 12345, Tb: 67890, Ra: 8000, Rb: 44100}
	f := func(off int32) bool {
		// Keep the offset small enough that float rounding stays tiny.
		off %= 1 << 24
		ta := Add(c.Ta, int(off))
		back := c.BtoA(c.AtoB(ta))
		d := Sub(back, ta)
		return d >= -8 && d <= 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestClipSpan checks the span clip against a per-tick count of where each
// tick of the span falls, for windows and spans either side of, and
// straddling, the 2³² wrap.
func TestClipSpan(t *testing.T) {
	for _, lo := range []ATime{0, 100, Add(0, -30), Add(0, -200), HalfRange - 10} {
		for _, width := range []int{0, 1, 64} {
			hi := Add(lo, width)
			for off := -80; off <= 80; off++ {
				for _, n := range []int{0, 1, 5, 64, 150} {
					start := Add(lo, off)
					var before, inside int
					for i := 0; i < n; i++ {
						switch ft := Add(start, i); {
						case Before(ft, lo):
							before++
						case Before(ft, hi):
							inside++
						}
					}
					if skip, in := ClipSpan(start, n, lo, hi); in != inside || (in > 0 && skip != before) || skip+in > n {
						t.Fatalf("ClipSpan(lo%+d, %d, width %d) = (%d, %d), per-tick count (%d, %d)",
							off, n, width, skip, in, before, inside)
					}
				}
			}
		}
	}
	if skip, in := ClipSpan(10, 8, 50, 60); skip != 8 || in != 0 {
		t.Errorf("span wholly before: (%d, %d), want (8, 0)", skip, in)
	}
	if skip, in := ClipSpan(70, 8, 50, 60); skip != 0 || in != 0 {
		t.Errorf("span wholly after: (%d, %d), want (0, 0)", skip, in)
	}
}
