//go:build !race

package metrics

import "testing"

// TestMetricsHotPathAllocs is BenchmarkMetricsHotPath's allocation gate:
// the observation path must not allocate. Under -race the counts include
// the detector's own, so the gate runs without it.
func TestMetricsHotPathAllocs(t *testing.T) {
	var m hotSet
	i := 0
	if n := testing.AllocsPerRun(1000, func() { m.observe(i); i++ }); n != 0 {
		t.Fatalf("hot path: %v allocs/op, want 0", n)
	}
}
