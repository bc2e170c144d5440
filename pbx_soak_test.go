// The PBX soak: 512 simulated telephone lines on one server, every line
// ringing with a full cadence while protocol clients watch. The test
// pins the property the update plane — one runtime timer per engine —
// must preserve: no ring-cadence edge is ever missed or duplicated — each
// line's pulses and its final ring-stop arrive at the clients exactly once
// and in order — and a 512-engine fleet is serviced with tick lag well
// under one update interval.
package audiofile

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/internal/rig"
)

func TestPBXRingCadenceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("512-line soak in -short mode")
	}
	const (
		pulses   = 3 // ring(1) edges per line, then one ring(0) stop edge
		watchers = 4
	)
	lines := 512
	if raceDetectorOn {
		// The race detector slows the whole process several-fold, so on a
		// small machine a 512-line exchange starves the engine passes of
		// CPU and the tick-lag assertion measures the machine, not the
		// update plane. A quarter fleet keeps every correctness property
		// (exact cadence edges per line) and a meaningful lag budget.
		lines = 128
	}
	specs := make([]aserver.DeviceSpec, lines)
	for i := range specs {
		specs[i] = aserver.DeviceSpec{
			Kind:       "phone",
			Name:       fmt.Sprintf("line%d", i),
			BufSeconds: 1,
		}
	}
	srv := rig.Server(t, aserver.Options{Devices: specs})

	// Each watcher owns lines w, w+watchers, ... and must observe every
	// edge on its lines: pulses ring(1) then one ring(0), in order.
	type result struct {
		w   int
		err error
	}
	results := make(chan result, watchers)
	var wg sync.WaitGroup
	for w := 0; w < watchers; w++ {
		conn, err := rig.Client(srv.DialPipe())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// Event selection is by device index, so watchers cover lines
		// past the setup reply's 255-device advertisement horizon.
		for l := w; l < lines; l += watchers {
			if err := conn.SelectEvents(l, af.MaskPhoneRing); err != nil {
				t.Fatal(err)
			}
		}
		// SelectEvents is asynchronous (buffered client-side, applied by the
		// control loop); sync before any line rings so a first-pulse drain
		// cannot race the mask registration and silently skip this watcher.
		if err := conn.Sync(); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, conn *af.Conn) {
			defer wg.Done()
			results <- result{w, watchRings(conn, w, watchers, lines, pulses)}
		}(w, conn)
	}

	// The exchange: every line rings its full cadence. Pulse rounds are
	// spaced so distinct pulses cannot be coalesced by the line (each
	// pulse is its own event regardless, but spacing also spreads the
	// event load across many update ticks).
	for p := 0; p < pulses; p++ {
		for l := 0; l < lines; l++ {
			srv.PhoneLine(l).RingPulse()
		}
		time.Sleep(30 * time.Millisecond)
	}
	for l := 0; l < lines; l++ {
		srv.PhoneLine(l).StopRinging()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("watchers did not observe every ring edge within 30s")
	}
	close(results)
	for r := range results {
		if r.err != nil {
			t.Fatalf("watcher %d: %v", r.w, r.err)
		}
	}

	// The fleet's scheduling health: 512 engine timers, and the
	// 99th-percentile fire still lands within one update interval of its
	// deadline (the phone CODEC interval is 64ms).
	snap := srv.Snapshot()
	if snap.SchedTickLagNs.Count == 0 {
		t.Fatal("no tick-lag observations; the timers did not drive the fleet")
	}
	interval := 64 * time.Millisecond
	budget := interval
	if raceDetectorOn && runtime.NumCPU() < 4 {
		// Quarter-scaling the fleet (above) is not enough when the race
		// build has one or two cores: the readers, the watchers, and
		// the engine passes all time-share a starved CPU and the p99
		// measures the machine, not the update plane. Keep the assertion —
		// a wedged engine still fails — but give it the headroom the
		// hardware denies rather than a budget the machine cannot meet.
		budget = 8 * interval
	}
	if p99 := time.Duration(snap.SchedTickLagNs.Quantile(0.99)); p99 >= budget {
		t.Fatalf("tick lag p99 %v >= budget %v (update interval %v) at %d lines",
			p99, budget, interval, lines)
	}
}

// watchRings consumes ring events until every line owned by watcher w
// has completed its cadence, enforcing exact per-line edge sequence:
// `pulses` ring-start edges (detail 1) followed by one ring-stop
// (detail 0), nothing missing, nothing extra, never out of order.
func watchRings(conn *af.Conn, w, watchers, lines, pulses int) error {
	type lineState struct {
		starts  int
		stopped bool
	}
	states := make(map[int]*lineState)
	remaining := 0
	for l := w; l < lines; l += watchers {
		states[l] = &lineState{}
		remaining++
	}
	for remaining > 0 {
		ev, err := conn.NextEvent()
		if err != nil {
			return err
		}
		if ev.Code != af.EventPhoneRing {
			return fmt.Errorf("unexpected event code %d on line %d", ev.Code, ev.Device)
		}
		st := states[ev.Device]
		if st == nil {
			return fmt.Errorf("event for line %d not owned by this watcher", ev.Device)
		}
		switch ev.Detail {
		case 1:
			if st.stopped {
				return fmt.Errorf("line %d: ring-start after ring-stop", ev.Device)
			}
			st.starts++
			if st.starts > pulses {
				return fmt.Errorf("line %d: %d ring-start edges, cadence has %d",
					ev.Device, st.starts, pulses)
			}
		case 0:
			if st.starts != pulses {
				return fmt.Errorf("line %d: ring-stop after %d of %d pulses — a cadence edge was missed",
					ev.Device, st.starts, pulses)
			}
			if st.stopped {
				return fmt.Errorf("line %d: duplicate ring-stop", ev.Device)
			}
			st.stopped = true
			remaining--
		default:
			return fmt.Errorf("line %d: ring detail %d", ev.Device, ev.Detail)
		}
	}
	return nil
}
