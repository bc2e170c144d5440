//go:build !race

package audiofile

import "testing"

// The root packages' allocation gates. Under -race the counts include the
// detector's own, so the gates run without it.

// TestWireThroughputAllocs is BenchmarkWireThroughput's allocation gate: a
// 24 KiB play and a 24 KiB record over each socket transport, client and
// server together, allocate nothing.
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

// TestRouterProxyAllocs is BenchmarkRouterProxy's allocation gate: the
// router's splice, per message and bulk, direct and routed, allocates
// nothing, backend and router included.
func TestRouterProxyAllocs(t *testing.T) {
	for _, mode := range routerModes {
		for name, rt := range map[string]func(){
			"gettime": routerGetTime(t, mode.routed),
			"play8k":  routerPlay8k(t, mode.routed),
		} {
			if n := testing.AllocsPerRun(100, rt); n != 0 {
				t.Errorf("%s/%s: %v allocs per round trip, want 0", mode.name, name, n)
			}
		}
	}
}
