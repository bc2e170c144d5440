//go:build linux && !race

package ring

import "testing"

// TestNewBufferMapsZeroSilence: a device buffer whose silence byte is 0
// is mapped; one whose silence is not 0, and every ring New makes, is the
// heap's. Release unmaps, once.
func TestNewBufferMapsZeroSilence(t *testing.T) {
	for _, tc := range []struct {
		r    *Ring
		want bool
	}{
		{NewBuffer(1<<16, 4, 0), true},
		{NewBuffer(1<<16, 1, 0xFF), false},
		{New(1<<16, 4, 0), false},
	} {
		if tc.r.mapped != tc.want {
			t.Errorf("%d-byte ring: mapped %v, want %v", len(tc.r.buf), tc.r.mapped, tc.want)
		}
		tc.r.Release()
		tc.r.Release()
		if tc.r.mapped || tc.r.buf != nil {
			t.Error("a released ring still holds storage")
		}
	}
}
