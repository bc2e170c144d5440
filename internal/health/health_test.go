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

// TestConformance is the rule table: every transition, driven by hand on
// a machine whose resync goroutine is not started. Ops: F Failure, S
// Success, E Escalate, R one resync (what the goroutine does on a wake).
func TestConformance(t *testing.T) {
	for _, tc := range []struct {
		name       string
		attempts   int
		heal       []healer
		ops        string
		want       string
		wantReason string // of the last event in the log; "" when there is none
		// transitions into healthy/suspect/down, then resyncs
		// started/completed/abandoned and Heal calls
		to        [3]uint64
		resyncs   [3]uint64
		attempted uint64
	}{
		{name: "below the threshold stays healthy", ops: "FF", want: Healthy},
		{name: "the threshold escalates", ops: "FFF", want: Suspect, wantReason: "failure threshold", to: [3]uint64{0, 1, 0}},
		{name: "a success ends the failure run", ops: "FFSFF", want: Healthy},
		{name: "escalate while healthy", ops: "E", want: Suspect, wantReason: "test", to: [3]uint64{0, 1, 0}},
		{name: "escalate while suspect is a no-op", ops: "EE", want: Suspect, wantReason: "test", to: [3]uint64{0, 1, 0}},
		{name: "a success while suspect makes the wake stale", ops: "ESR", want: Healthy, wantReason: "recovered", to: [3]uint64{1, 1, 0}},
		{
			name: "resync completes", heal: []healer{healOK}, ops: "ER",
			want: Healthy, wantReason: "resync complete",
			to: [3]uint64{1, 1, 0}, resyncs: [3]uint64{1, 1, 0}, attempted: 1,
		},
		{
			name: "resync completes on a later attempt", attempts: 3, heal: []healer{healFail, healFail, healOK}, ops: "ER",
			want: Healthy, wantReason: "resync complete",
			to: [3]uint64{1, 1, 0}, resyncs: [3]uint64{1, 1, 0}, attempted: 3,
		},
		{
			name: "resync abandoned", attempts: 2, heal: []healer{healFail, healFail}, ops: "ER",
			want: Down, wantReason: "resync abandoned",
			to: [3]uint64{0, 1, 1}, resyncs: [3]uint64{1, 0, 1}, attempted: 2,
		},
		{
			name: "escalate while resyncing is a no-op",
			heal: []healer{func(m *Machine) bool { m.Escalate("again"); return true }}, ops: "ER",
			want: Healthy, wantReason: "resync complete",
			to: [3]uint64{1, 1, 0}, resyncs: [3]uint64{1, 1, 0}, attempted: 1,
		},
		{
			name: "failures while resyncing do not escalate",
			heal: []healer{func(m *Machine) bool {
				for i := 0; i < 5; i++ {
					m.Failure()
				}
				return true
			}},
			ops: "ER", want: Healthy, wantReason: "resync complete",
			to: [3]uint64{1, 1, 0}, resyncs: [3]uint64{1, 1, 0}, attempted: 1,
		},
		{
			// Heal reports for itself: a success seen mid-resync (the
			// resync's own round trip) leaves the state to the outcome.
			name: "a success while resyncing stays resyncing", attempts: 1,
			heal: []healer{func(m *Machine) bool { m.Success(); return m.State() != Resyncing }}, ops: "ER",
			want: Down, wantReason: "resync abandoned",
			to: [3]uint64{0, 1, 1}, resyncs: [3]uint64{1, 0, 1}, attempted: 1,
		},
		{
			name: "escalate while down is a no-op", attempts: 1, heal: []healer{healFail}, ops: "ERE",
			want: Down, wantReason: "resync abandoned",
			to: [3]uint64{0, 1, 1}, resyncs: [3]uint64{1, 0, 1}, attempted: 1,
		},
		{
			name: "failures while down stay down", attempts: 1, heal: []healer{healFail}, ops: "ERFFFFFFFFF",
			want: Down, wantReason: "resync abandoned",
			to: [3]uint64{0, 1, 1}, resyncs: [3]uint64{1, 0, 1}, attempted: 1,
		},
		{
			name: "a success while down recovers", attempts: 1, heal: []healer{healFail}, ops: "ERS",
			want: Healthy, wantReason: "recovered",
			to: [3]uint64{1, 1, 1}, resyncs: [3]uint64{1, 0, 1}, attempted: 1,
		},
		{
			name: "a fresh run after recovery escalates again", attempts: 1, heal: []healer{healFail}, ops: "ERSFFF",
			want: Suspect, wantReason: "failure threshold",
			to: [3]uint64{1, 2, 1}, resyncs: [3]uint64{1, 0, 1}, attempted: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m *Machine
			var log metrics.Log
			calls := 0
			m = newMachine(Config{Attempts: tc.attempts, Backoff: time.Nanosecond, Log: &log, Heal: func() bool {
				if calls >= len(tc.heal) {
					t.Fatalf("Heal call %d is not scripted", calls+1)
				}
				calls++
				return tc.heal[calls-1](m)
			}})
			for _, op := range tc.ops {
				switch op {
				case 'F':
					m.Failure()
				case 'S':
					m.Success()
				case 'E':
					m.Escalate("test")
				case 'R':
					if !m.resync() {
						t.Fatal("resync reports a Close that never happened")
					}
				}
			}
			s := m.Stats()
			if s.State != tc.want {
				t.Errorf("state %s, want %s", s.State, tc.want)
			}
			evs, _ := log.Since(0)
			if reason := lastReason(evs); reason != tc.wantReason {
				t.Errorf("last event reason %q, want %q (%+v)", reason, tc.wantReason, evs)
			}
			if n := s.Moves(); uint64(len(evs)) != n {
				t.Errorf("%d events for %d transitions", len(evs), n)
			}
			if to := [3]uint64{s.ToHealthy, s.ToSuspect, s.ToDown}; to != tc.to {
				t.Errorf("transitions into healthy/suspect/down %v, want %v", to, tc.to)
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
	m := newMachine(Config{Threshold: 4})
	for i, want := range []int64{1, 2, 3, 0} {
		m.Failure()
		if got := m.Stats().ConsecFails; got != want {
			t.Fatalf("after failure %d: consec_fails %d, want %d", i+1, got, want)
		}
	}
	m.Failure()
	m.Success()
	if got := m.Stats().ConsecFails; got != 0 {
		t.Errorf("after a success: consec_fails %d, want 0", got)
	}
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
	m := newMachine(Config{Log: &log, Name: "box"})
	for i := 0; i < 3; i++ {
		m.Escalate("test")
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
	want := strings.Repeat("healthy -> suspect (test) suspect -> healthy (recovered) ", 3)
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
