package aserver

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkUpdateScheduler measures one engine pass, the unit a timer
// fire runs: take the engine lock through the instrumented path, run what
// is due (the periodic device update), re-arm the timer. It drives pass
// directly, so the goroutine start a real fire pays is not in it. Device
// clocks are manual so the pass is pure scheduling + update machinery, and
// the driving now advances artificially so the periodic update is
// genuinely due on every visit. Must stay 0 allocs/op at every fleet size:
// a thousand-device tick may not generate garbage.
func BenchmarkUpdateScheduler(b *testing.B) {
	for _, devs := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("devs=%d", devs), func(b *testing.B) {
			s, err := New(Options{
				Devices: manyCodecs(devs),
				Logf:    func(string, ...any) {},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			// Round-robin the fleet; each visit advances the fake clock
			// past the engine's next deadline so the pass always runs the
			// periodic update (fan-out cost, not idle-poll cost).
			now := time.Now()
			step := s.engines[0].interval/time.Duration(devs) + time.Millisecond
			i := 0
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				e := s.engines[i]
				i++
				if i == len(s.engines) {
					i = 0
				}
				now = now.Add(step)
				e.pass(now)
			}
		})
	}
}
