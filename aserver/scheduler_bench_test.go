package aserver

import (
	"fmt"
	"testing"
	"time"
)

// schedulerFleets are BenchmarkUpdateScheduler's fleet sizes.
var schedulerFleets = []int{64, 256, 1024}

// updateScheduler readies a fleet of devs manual-clock codecs and returns
// one engine pass, the unit a timer fire runs: take the engine lock
// through the instrumented path, run what is due (the periodic device
// update), re-arm the timer. It drives pass directly, so the goroutine
// start a real fire pays is not in it. Passes round-robin the fleet, and
// each visit advances the driving now past the engine's next deadline, so
// the periodic update is genuinely due every time (fan-out cost, not
// idle-poll cost).
func updateScheduler(tb testing.TB, devs int) func() {
	s, err := New(Options{
		Devices: manyCodecs(devs),
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	now := time.Now()
	step := s.engines[0].interval/time.Duration(devs) + time.Millisecond
	i := 0
	return func() {
		e := s.engines[i]
		if i++; i == len(s.engines) {
			i = 0
		}
		now = now.Add(step)
		e.pass(now)
	}
}

// BenchmarkUpdateScheduler measures updateScheduler's pass. Must stay 0
// allocs/op at every fleet size: a thousand-device tick may not generate
// garbage.
func BenchmarkUpdateScheduler(b *testing.B) {
	for _, devs := range schedulerFleets {
		b.Run(fmt.Sprintf("devs=%d", devs), func(b *testing.B) {
			benchOp(b, 0, updateScheduler(b, devs))
		})
	}
}
