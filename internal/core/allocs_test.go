//go:build !race

package core

import "testing"

// TestDeviceUpdateAllocs is BenchmarkDeviceUpdate's allocation gate: every
// tick of every rung allocates nothing. Under -race the counts include the
// detector's own, so the gate runs without it.
func TestDeviceUpdateAllocs(t *testing.T) {
	for _, du := range deviceUpdates {
		tick, _ := du.ready(t)
		if n := testing.AllocsPerRun(100, tick); n != 0 {
			t.Errorf("%s: %v allocs per tick, want 0", du.name, n)
		}
	}
}
