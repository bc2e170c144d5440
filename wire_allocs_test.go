//go:build !race

package audiofile

import "testing"

// TestWireThroughputAllocs is BenchmarkWireThroughput's allocation gate: a
// 24 KiB play and a 24 KiB record over each socket transport, client and
// server together, allocate nothing. Under -race the counts include the
// detector's own, so the gate runs without it.
func TestWireThroughputAllocs(t *testing.T) {
	for _, cfg := range benchConfigs {
		for _, wc := range wireCalls {
			call := wc.ready(t, cfg)
			var err error
			allocs := testing.AllocsPerRun(100, func() {
				if e := call(); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", cfg.Name, wc.name, err)
			}
			if allocs != 0 {
				t.Errorf("%s/%s: %v allocs per call, want 0", cfg.Name, wc.name, allocs)
			}
		}
	}
}
