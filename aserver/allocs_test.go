//go:build !race

package aserver

import "testing"

// TestDispatchSocketAllocs is BenchmarkDispatchSocket's allocation gate:
// each of its round trips, server included, allocates nothing. Under
// -race the counts include the detector's own, so the gate runs without
// it.
func TestDispatchSocketAllocs(t *testing.T) {
	for _, rt := range socketRoundTrips() {
		roundTrip, check := rt.serve(t)
		if n := testing.AllocsPerRun(200, roundTrip); n != 0 {
			t.Errorf("%s: %v allocs per round trip, want 0", rt.name, n)
		}
		check()
	}
}
