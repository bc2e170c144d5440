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
	q := Add(a, -HalfRange) // the division point, the same tick mod 2^32
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

func TestMinMax(t *testing.T) {
	var a, b ATime = 100, 200
	if Min(a, b) != a || Min(b, a) != a {
		t.Error("Min wrong")
	}
	if Max(a, b) != b || Max(b, a) != b {
		t.Error("Max wrong")
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
