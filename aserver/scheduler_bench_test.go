package aserver

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkUpdateScheduler measures the per-engine cost of one worker
// pass — a sweep of one, the unit the wheel fans out every tick: clear
// the queued flag, take the engine lock through the instrumented path,
// run due tasks (the periodic device update), re-arm the wheel timer.
// Device clocks
// are manual so the pass is pure scheduler + update machinery, and the
// driving now advances artificially so the periodic task is genuinely
// due on every visit. Must stay 0 allocs/op at every fleet size: a
// thousand-device tick may not generate garbage.
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
			// past the engine's next deadline so runDue always fires the
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
				// Mirror the fire path's bookkeeping so the overdue gauge
				// (decremented by runBatch) stays consistent.
				s.sm.schedOverdue.Add(1)
				bp := engineBatchPool.Get().(*[]*engine)
				*bp = append(*bp, e)
				s.sched.runBatch(bp, now)
			}
		})
	}
}
