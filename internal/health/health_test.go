package health

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"audiofile/internal/metrics"
)

// healer is one scripted Heal call; it may drive the machine itself, as a
// real heal's own round trips do.
type healer func(m *Machine) bool

func healOK(*Machine) bool   { return true }
func healFail(*Machine) bool { return false }

// TestConformance is the rule table: every transition, driven by hand.
// Ops: F Failure, S Success, E Escalate, W wait for the resync the
// escalation started to end.
func TestConformance(t *testing.T) {
	for _, tc := range []struct {
		name       string
		attempts   int
		heal       []healer
		ops        string
		want       string
		wantEvents string // every event's detail, each followed by "; "
		// transitions into healthy/down, then resyncs
		// started/completed/abandoned and Heal calls
		to        [2]uint64
		resyncs   [3]uint64
		attempted uint64
	}{
		{name: "below the threshold stays healthy", ops: "FF", want: Healthy},
		{name: "a success ends the failure run", ops: "FFSFF", want: Healthy},
		{
			name: "the threshold escalates", heal: []healer{healOK}, ops: "FFFW",
			want:       Healthy,
			wantEvents: "healthy -> resyncing (failure threshold); resyncing -> healthy (resync complete); ",
			to:         [2]uint64{1, 0}, resyncs: [3]uint64{1, 1, 0}, attempted: 1,
		},
		{
			name: "escalate while healthy", heal: []healer{func(m *Machine) bool { return m.State() == Resyncing }}, ops: "EW",
			want:       Healthy,
			wantEvents: "healthy -> resyncing (test); resyncing -> healthy (resync complete); ",
			to:         [2]uint64{1, 0}, resyncs: [3]uint64{1, 1, 0}, attempted: 1,
		},
		{
			name: "resync completes", heal: []healer{healOK}, ops: "EW",
			want:       Healthy,
			wantEvents: "healthy -> resyncing (test); resyncing -> healthy (resync complete); ",
			to:         [2]uint64{1, 0}, resyncs: [3]uint64{1, 1, 0}, attempted: 1,
		},
		{
			// Success lifts only down: one landing before the first Heal
			// leaves the resync to run, once.
			name: "a success before Heal does not cancel the resync", heal: []healer{healOK}, ops: "ESW",
			want:       Healthy,
			wantEvents: "healthy -> resyncing (test); resyncing -> healthy (resync complete); ",
			to:         [2]uint64{1, 0}, resyncs: [3]uint64{1, 1, 0}, attempted: 1,
		},
		{
			name: "resync completes on a later attempt", attempts: 3, heal: []healer{healFail, healFail, healOK}, ops: "EW",
			want:       Healthy,
			wantEvents: "healthy -> resyncing (test); resyncing -> healthy (resync complete); ",
			to:         [2]uint64{1, 0}, resyncs: [3]uint64{1, 1, 0}, attempted: 3,
		},
		{
			name: "resync abandoned", attempts: 2, heal: []healer{healFail, healFail}, ops: "EW",
			want:       Down,
			wantEvents: "healthy -> resyncing (test); resyncing -> down (resync abandoned); ",
			to:         [2]uint64{0, 1}, resyncs: [3]uint64{1, 0, 1}, attempted: 2,
		},
		{
			name: "escalate while resyncing is a no-op",
			heal: []healer{func(m *Machine) bool { m.Escalate("again"); return true }}, ops: "EW",
			want:       Healthy,
			wantEvents: "healthy -> resyncing (test); resyncing -> healthy (resync complete); ",
			to:         [2]uint64{1, 0}, resyncs: [3]uint64{1, 1, 0}, attempted: 1,
		},
		{
			name: "failures while resyncing do not escalate",
			heal: []healer{func(m *Machine) bool {
				for i := 0; i < 5; i++ {
					m.Failure()
				}
				return true
			}},
			ops: "EW", want: Healthy,
			wantEvents: "healthy -> resyncing (test); resyncing -> healthy (resync complete); ",
			to:         [2]uint64{1, 0}, resyncs: [3]uint64{1, 1, 0}, attempted: 1,
		},
		{
			// Heal reports for itself: a success seen mid-resync (the
			// resync's own round trip) leaves the state to the outcome.
			name: "a success while resyncing stays resyncing", attempts: 1,
			heal: []healer{func(m *Machine) bool { m.Success(); return m.State() != Resyncing }}, ops: "EW",
			want:       Down,
			wantEvents: "healthy -> resyncing (test); resyncing -> down (resync abandoned); ",
			to:         [2]uint64{0, 1}, resyncs: [3]uint64{1, 0, 1}, attempted: 1,
		},
		{
			name: "escalate while down is a no-op", attempts: 1, heal: []healer{healFail}, ops: "EWE",
			want:       Down,
			wantEvents: "healthy -> resyncing (test); resyncing -> down (resync abandoned); ",
			to:         [2]uint64{0, 1}, resyncs: [3]uint64{1, 0, 1}, attempted: 1,
		},
		{
			name: "failures while down stay down", attempts: 1, heal: []healer{healFail}, ops: "EWFFFFFFFFF",
			want:       Down,
			wantEvents: "healthy -> resyncing (test); resyncing -> down (resync abandoned); ",
			to:         [2]uint64{0, 1}, resyncs: [3]uint64{1, 0, 1}, attempted: 1,
		},
		{
			name: "a success while down recovers", attempts: 1, heal: []healer{healFail}, ops: "EWS",
			want:       Healthy,
			wantEvents: "healthy -> resyncing (test); resyncing -> down (resync abandoned); down -> healthy (recovered); ",
			to:         [2]uint64{1, 1}, resyncs: [3]uint64{1, 0, 1}, attempted: 1,
		},
		{
			name: "a fresh run after recovery escalates again", attempts: 1, heal: []healer{healFail, healOK}, ops: "EWSFFFW",
			want: Healthy,
			wantEvents: "healthy -> resyncing (test); resyncing -> down (resync abandoned); down -> healthy (recovered); " +
				"healthy -> resyncing (failure threshold); resyncing -> healthy (resync complete); ",
			to: [2]uint64{2, 1}, resyncs: [3]uint64{2, 1, 1}, attempted: 2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m *Machine
			var log metrics.Log
			calls := 0
			m = New(Config{Attempts: tc.attempts, Backoff: time.Nanosecond, Log: &log, Heal: func() bool {
				if calls >= len(tc.heal) {
					t.Errorf("Heal call %d is not scripted", calls+1)
					return false
				}
				calls++
				return tc.heal[calls-1](m)
			}})
			defer m.Close()
			for _, op := range tc.ops {
				switch op {
				case 'F':
					m.Failure()
				case 'S':
					m.Success()
				case 'E':
					m.Escalate("test")
				case 'W':
					m.wg.Wait()
				}
			}
			s := m.Stats()
			if s.State != tc.want {
				t.Errorf("state %s, want %s", s.State, tc.want)
			}
			evs, _ := log.Since(0)
			var got strings.Builder
			for _, ev := range evs {
				got.WriteString(ev.Detail + "; ")
			}
			if got.String() != tc.wantEvents {
				t.Errorf("events %q, want %q", got.String(), tc.wantEvents)
			}
			if n := s.Moves(); uint64(len(evs)) != n {
				t.Errorf("%d events for %d transitions", len(evs), n)
			}
			if to := [2]uint64{s.ToHealthy, s.ToDown}; to != tc.to {
				t.Errorf("transitions into healthy/down %v, want %v", to, tc.to)
			}
			if r := [3]uint64{s.ResyncsStarted, s.ResyncsCompleted, s.ResyncsAbandoned}; r != tc.resyncs {
				t.Errorf("resyncs started/completed/abandoned %v, want %v", r, tc.resyncs)
			}
			if s.ResyncAttempts != tc.attempted || uint64(calls) != tc.attempted {
				t.Errorf("resync attempts %d (Heal called %d times), want %d", s.ResyncAttempts, calls, tc.attempted)
			}
			if err := s.Check(true); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestFailureRunCount: ConsecFails counts the run, and escalation and
// a success both end it.
func TestFailureRunCount(t *testing.T) {
	m := New(Config{Threshold: 4, Heal: func() bool { return true }})
	defer m.Close()
	for i, want := range []int64{1, 2, 3, 0} {
		m.Failure()
		if got := m.Stats().ConsecFails; got != want {
			t.Fatalf("after failure %d: consec_fails %d, want %d", i+1, got, want)
		}
	}
	m.wg.Wait()
	m.Failure()
	m.Success()
	if got := m.Stats().ConsecFails; got != 0 {
		t.Errorf("after a success: consec_fails %d, want 0", got)
	}
}

// TestGoroutines pins the lifecycle: a machine holds a goroutine only
// while it resyncs, exactly one then, and none after Close, whether Close
// lands in the backoff or after the resync ended; a closed machine
// refuses to escalate.
func TestGoroutines(t *testing.T) {
	entered, release := make(chan struct{}), make(chan bool)
	m := New(Config{Attempts: 2, Backoff: time.Hour, Heal: func() bool {
		entered <- struct{}{}
		return <-release
	}})
	waitMachineGoroutines(t, "a healthy machine", 0)

	m.Escalate("test")
	<-entered
	waitMachineGoroutines(t, "a resync in Heal", 1)
	release <- true
	m.wg.Wait()
	waitMachineGoroutines(t, "a completed resync", 0)

	m.Escalate("test")
	<-entered
	release <- false // the first try fails: the second waits out an hour
	waitMachineGoroutines(t, "a resync in its backoff", 1)
	m.Close()
	waitMachineGoroutines(t, "a closed machine", 0)

	m.Success() // down -> healthy, so only the Close can refuse
	m.Escalate("after close")
	if s := m.Stats(); s.State != Healthy || s.ResyncsStarted != 2 || s.ResyncsAbandoned != 1 {
		t.Errorf("after Close: %+v; want healthy, 2 resyncs started, 1 abandoned", s)
	}
	waitMachineGoroutines(t, "an escalation after Close", 0)
}

// waitMachineGoroutines fails unless, within 5 s, exactly want goroutines
// run a Machine method: one that has ended its resync may take a moment
// to exit.
func waitMachineGoroutines(t *testing.T, what string, want int) {
	t.Helper()
	var n int
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		buf := make([]byte, 1<<20)
		n = 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "health.(*Machine).") {
				n++
			}
		}
		if n == want {
			return
		}
	}
	t.Fatalf("%s: %d machine goroutines, want %d", what, n, want)
}

// TestCloseMidResync: a Close while a resync waits out its backoff ends
// it at once, counted abandoned, so the law is exact after Close.
func TestCloseMidResync(t *testing.T) {
	var heals atomic.Int32
	var log metrics.Log
	m := New(Config{Attempts: 3, Backoff: time.Hour, Log: &log, Heal: func() bool { heals.Add(1); return false }})
	m.Escalate("test")
	for heals.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { m.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close waited out the backoff")
	}
	s := m.Stats()
	if s.ResyncsStarted != 1 || s.ResyncsAbandoned != 1 || s.ResyncsCompleted != 0 {
		t.Errorf("resyncs started/completed/abandoned %d/%d/%d, want 1/0/1",
			s.ResyncsStarted, s.ResyncsCompleted, s.ResyncsAbandoned)
	}
	if evs, _ := log.Since(0); s.State != Down || lastReason(evs) != "resync aborted by close" {
		t.Errorf("state %s, events %+v; want down, aborted by close", s.State, evs)
	}
	m.Close() // idempotent
}

// TestStatsIsOneRead: Stats reads every transition count under the lock
// that makes them, so no field order can break the law: a snapshot taken
// mid-resync is short by exactly that resync, one taken between resyncs
// is exact, and so is every snapshot after Close.
func TestStatsIsOneRead(t *testing.T) {
	const resyncs = 500
	var m *Machine
	var bad atomic.Value
	check := func(s Stats) {
		inFlight := uint64(0)
		if s.State == Resyncing {
			inFlight = 1
		}
		if s.ResyncsStarted != s.ResyncsCompleted+s.ResyncsAbandoned+inFlight {
			bad.Store(s)
		}
	}
	m = New(Config{Attempts: 1, Heal: func() bool {
		if s := m.Stats(); s.State != Resyncing {
			bad.Store(s)
		} else {
			check(s)
		}
		return true
	}})
	var wg sync.WaitGroup
	var stop atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			check(m.Stats())
			runtime.Gosched()
		}
	}()
	for i := 0; i < resyncs; i++ {
		m.Escalate("test")
		for !m.Healthy() {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
	m.Close()
	if s := bad.Load(); s != nil {
		t.Errorf("live snapshot breaks the law: %+v", s)
	}
	if s := m.Stats(); s.ResyncsStarted != resyncs || s.ResyncsCompleted != resyncs {
		t.Errorf("after Close: started %d completed %d, want %d each", s.ResyncsStarted, s.ResyncsCompleted, resyncs)
	}
}

// lastReason is the reason of the last event in evs: its detail's
// parenthesis.
func lastReason(evs []metrics.Event) string {
	if len(evs) == 0 {
		return ""
	}
	d := evs[len(evs)-1].Detail
	return d[strings.LastIndex(d, "(")+1 : len(d)-1]
}

// TestEventRing: every transition is recorded once, in order, in the log
// the owner hands the machine, under the machine's name.
func TestEventRing(t *testing.T) {
	var log metrics.Log
	m := New(Config{Attempts: 1, Log: &log, Name: "box", Heal: func() bool { return false }})
	defer m.Close()
	for i := 0; i < 3; i++ {
		m.Escalate("test")
		m.wg.Wait()
		m.Success()
	}
	evs, _ := log.Since(0)
	var got []string
	for _, ev := range evs {
		if ev.Kind != metrics.Health || ev.Subject != "box" {
			t.Errorf("event %+v, want kind health for box", ev)
		}
		got = append(got, ev.Detail)
	}
	want := strings.Repeat("healthy -> resyncing (test) resyncing -> down (resync abandoned) down -> healthy (recovered) ", 3)
	if strings.Join(got, " ")+" " != want {
		t.Errorf("events %q", got)
	}
}

// TestLaw plants violations of the resync law: an imbalance in the
// allowed direction (a resync in flight) passes live and fails settled,
// one in the other direction fails both, and the error names the law.
func TestLaw(t *testing.T) {
	const law = "resyncs_started = resyncs_completed + resyncs_abandoned"
	for _, tc := range []struct {
		name          string
		s             Stats
		live, settled bool // whether Check(false), Check(true) pass
	}{
		{"balanced", Stats{ResyncsStarted: 3, ResyncsCompleted: 2, ResyncsAbandoned: 1}, true, true},
		{"in flight", Stats{ResyncsStarted: 3, ResyncsCompleted: 1, ResyncsAbandoned: 1}, true, false},
		{"ended twice", Stats{ResyncsStarted: 2, ResyncsCompleted: 2, ResyncsAbandoned: 1}, false, false},
	} {
		for _, settled := range []bool{false, true} {
			want := tc.live
			if settled {
				want = tc.settled
			}
			err := tc.s.Check(settled)
			if (err == nil) != want || (err != nil && !strings.Contains(err.Error(), law)) {
				t.Errorf("%s: Check(%v) = %v, want pass %v naming %q", tc.name, settled, err, want, law)
			}
		}
	}
}
