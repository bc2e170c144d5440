package lineserver

import (
	"bytes"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"audiofile/internal/health"
	"audiofile/internal/metrics"
)

// scriptedBox is a raw UDP responder the test drives packet by packet:
// for every request the script decides exactly which datagrams go back —
// none (a dead box), the real reply, stale replies to other sequence
// numbers, duplicates, or garbage. It bypasses Firmware so tests can
// forge the precise wire conditions the backend must survive.
type scriptedBox struct {
	pc net.PacketConn
}

func startScriptedBox(t *testing.T, handle func(req *Packet) []*Packet) *scriptedBox {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	box := &scriptedBox{pc: pc}
	t.Cleanup(func() { pc.Close() })
	go func() {
		buf := make([]byte, HeaderBytes+MaxDataBytes+64)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			req, err := Parse(buf[:n])
			if err != nil {
				continue
			}
			for _, rep := range handle(req) {
				pc.WriteTo(rep.Marshal(), from) //nolint:errcheck
			}
		}
	}()
	return box
}

func (b *scriptedBox) addr() string { return b.pc.LocalAddr().String() }

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRoundTripDiscardsStaleAndDuplicate: the regression for the silent
// failure path in roundTrip. The box answers a request with a stale
// reply (a straggler for a request the backend never made live), a
// byte-identical duplicate of it, and only then the real reply. The
// stale datagrams carry a poisoned timestamp; the old code would have
// adopted the first one as the answer.
func TestRoundTripDiscardsStaleAndDuplicate(t *testing.T) {
	const poisonTime = 0x7fffffff
	var armed atomic.Bool
	box := startScriptedBox(t, func(req *Packet) []*Packet {
		if req.Fn == FnLoopback && armed.Load() && len(req.Data) > 0 {
			stale := &Packet{Seq: 0xdeadbeef, Time: poisonTime, Fn: FnLoopback, Data: []byte("old news")}
			real := &Packet{Seq: req.Seq, Time: 2000, Fn: FnLoopback, Data: req.Data}
			return []*Packet{stale, stale, real}
		}
		return []*Packet{{Seq: req.Seq, Time: 3000, Fn: req.Fn, Data: req.Data}}
	})

	b, err := Dial(box.addr(), 8000, Config{NoExtrapolate: true, Timeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	armed.Store(true)
	got, ok := loopback(b, []byte("live"))
	armed.Store(false)
	if !ok || !bytes.Equal(got, []byte("live")) {
		t.Fatalf("Loopback through stale noise = %q, %v", got, ok)
	}

	// Two more round trips drain any stale datagrams that arrived after
	// the accept, then refresh the time base from a clean reply.
	loopback(b, nil)
	if got := b.Time(); got != 3000 {
		t.Errorf("Time = %d after stale replies carrying %d; poisoned timestamp adopted", got, poisonTime)
	}

	st := b.Stats()
	if st.Stale == 0 {
		t.Error("stale reply not counted")
	}
	if st.Duplicate == 0 {
		t.Error("duplicated reply not counted")
	}
	if err := st.Check(true); err != nil {
		t.Errorf("at rest: %v", err)
	}
}

// TestDelayedReplyToTimedOutRequest: the ISSUE's exact scenario — a
// reply to an earlier, timed-out request arrives (twice) just before the
// retry's reply. The backend must not mistake either copy for the live
// answer.
func TestDelayedReplyToTimedOutRequest(t *testing.T) {
	var withheld atomic.Uint32 // seq of the request we sat on
	var armed atomic.Bool
	box := startScriptedBox(t, func(req *Packet) []*Packet {
		if req.Fn != FnLoopback || !armed.Load() {
			return []*Packet{{Seq: req.Seq, Time: 500, Fn: req.Fn, Data: req.Data}}
		}
		if withheld.CompareAndSwap(0, req.Seq) {
			return nil // first try: the box is slow; no reply before the timeout
		}
		// The retry arrives: first the delayed reply to the old request —
		// duplicated in transit — then the real one.
		delayed := &Packet{Seq: withheld.Load(), Time: 999999, Fn: FnLoopback, Data: []byte("delayed")}
		return []*Packet{delayed, delayed, {Seq: req.Seq, Time: 1000, Fn: FnLoopback, Data: req.Data}}
	})

	b, err := Dial(box.addr(), 8000, Config{NoExtrapolate: true, Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	armed.Store(true)
	got, ok := loopback(b, []byte("retry me"))
	armed.Store(false)
	if !ok || !bytes.Equal(got, []byte("retry me")) {
		t.Fatalf("Loopback through delayed duplicate = %q, %v", got, ok)
	}
	loopback(b, nil) // drain any copy that landed after the accept

	st := b.Stats()
	if st.Stale == 0 {
		t.Error("delayed reply to the timed-out request not counted stale")
	}
	if st.Duplicate == 0 {
		t.Error("duplicated delayed reply not counted duplicate")
	}
	if got := b.Time(); got != 500 && got != 1000 {
		t.Errorf("Time = %d; delayed reply's timestamp adopted", got)
	}
}

// TestResyncAbandoned: a dead box escalates healthy→resyncing,
// every recovery attempt fails, and the resync is abandoned (state
// down). The resync conservation law is exact once the backend closes.
func TestResyncAbandoned(t *testing.T) {
	var alive atomic.Bool
	alive.Store(true)
	box := startScriptedBox(t, func(req *Packet) []*Packet {
		if !alive.Load() {
			return nil
		}
		return []*Packet{{Seq: req.Seq, Time: 100, Fn: req.Fn, Data: req.Data}}
	})

	var log metrics.Log
	b, err := Dial(box.addr(), 8000, Config{NoExtrapolate: true, Timeout: 20 * time.Millisecond,
		Health: health.Config{Threshold: 2, Attempts: 3, Backoff: time.Millisecond, Log: &log, Name: "box"}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.health.State() != health.Healthy {
		t.Fatalf("fresh backend state = %s", b.health.State())
	}

	// Two failed round trips cross the threshold; the healer's three
	// attempts all fail against the dead box.
	alive.Store(false)
	loopback(b, nil)
	loopback(b, nil)
	waitFor(t, "state down after abandoned resync", func() bool { return b.health.State() == health.Down })

	b.Close()
	st := b.Stats()
	if st.ResyncsStarted != 1 || st.ResyncsAbandoned != 1 || st.ResyncsCompleted != 0 {
		t.Errorf("dead-box resync: started %d completed %d abandoned %d, want 1/0/1",
			st.ResyncsStarted, st.ResyncsCompleted, st.ResyncsAbandoned)
	}
	if st.ResyncAttempts != 3 {
		t.Errorf("resync attempts = %d, want 3", st.ResyncAttempts)
	}
	requireMove(t, &log, "resyncing -> down")
}

// TestResyncCompletes: the box dies long enough to trigger a resync and
// comes back while the healer is retrying; the resync completes and the
// backend returns to healthy on its own.
func TestResyncCompletes(t *testing.T) {
	var alive atomic.Bool
	alive.Store(true)
	box := startScriptedBox(t, func(req *Packet) []*Packet {
		if !alive.Load() {
			return nil
		}
		return []*Packet{{Seq: req.Seq, Time: 100, Fn: req.Fn, Data: req.Data}}
	})

	// Enough attempts that the box is guaranteed to be back before the
	// healer gives up (it revives microseconds after the escalation).
	var log metrics.Log
	b, err := Dial(box.addr(), 8000, Config{NoExtrapolate: true, Timeout: 20 * time.Millisecond,
		Health: health.Config{Threshold: 2, Attempts: 200, Backoff: time.Millisecond, Log: &log, Name: "box"}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	alive.Store(false)
	loopback(b, nil)
	loopback(b, nil)
	alive.Store(true)
	waitFor(t, "resync completion after revival", func() bool {
		st := b.Stats()
		return st.ResyncsCompleted >= 1 && st.State == health.Healthy
	})

	b.Close()
	st := b.Stats()
	if err := st.Check(true); err != nil {
		t.Errorf("after close: %v", err)
	}
	requireMove(t, &log, "resyncing -> healthy")
}

// requireMove fails unless log holds the box's health transition move.
func requireMove(t *testing.T, log *metrics.Log, move string) {
	t.Helper()
	evs, _ := log.Since(0)
	for _, ev := range evs {
		if ev.Kind == metrics.Health && ev.Subject == "box" && strings.HasPrefix(ev.Detail, move+" ") {
			return
		}
	}
	t.Errorf("event log missing %s: %+v", move, evs)
}

// TestSpontaneousRecovery: a backend whose resync was abandoned (state
// down) recovers on the next successful round trip, without another
// resync being started.
func TestSpontaneousRecovery(t *testing.T) {
	var alive atomic.Bool
	alive.Store(true)
	box := startScriptedBox(t, func(req *Packet) []*Packet {
		if !alive.Load() {
			return nil
		}
		return []*Packet{{Seq: req.Seq, Time: 100, Fn: req.Fn, Data: req.Data}}
	})
	b, err := Dial(box.addr(), 8000, Config{NoExtrapolate: true, Timeout: 20 * time.Millisecond,
		Health: health.Config{Threshold: 2, Attempts: 1, Backoff: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// One-attempt healer against a dead box: straight to down.
	alive.Store(false)
	loopback(b, nil)
	loopback(b, nil)
	waitFor(t, "state down", func() bool { return b.health.State() == health.Down })

	// The network heals before any new escalation: one good op recovers.
	alive.Store(true)
	if _, ok := loopback(b, []byte("back")); !ok {
		t.Fatal("loopback against revived box failed")
	}
	if got := b.health.State(); got != health.Healthy {
		t.Errorf("state after successful op = %s, want healthy", got)
	}
	if st := b.Stats(); st.ResyncsStarted != 1 {
		t.Errorf("spontaneous recovery started %d resyncs, want the original 1 only", st.ResyncsStarted)
	}
}

// TestLaw plants a violation of BackendStats' law: an imbalance in the
// allowed direction (a resync in flight) passes live and fails settled,
// one in the other direction fails both, and the error names the law.
func TestLaw(t *testing.T) {
	const resyncs = "resyncs_started = resyncs_completed + resyncs_abandoned"
	ok := BackendStats{
		Stats: health.Stats{ResyncsStarted: 2, ResyncsCompleted: 1, ResyncsAbandoned: 1},
	}
	for _, tc := range []struct {
		name          string
		plant         func(*BackendStats)
		law           string
		live, settled bool // whether Check(false), Check(true) pass
	}{
		{"balanced", func(*BackendStats) {}, "", true, true},
		{"resync in flight", func(s *BackendStats) { s.ResyncsStarted++ }, resyncs, true, false},
		{"resync ended twice", func(s *BackendStats) { s.ResyncsAbandoned++ }, resyncs, false, false},
	} {
		s := ok
		tc.plant(&s)
		for _, settled := range []bool{false, true} {
			want := tc.live
			if settled {
				want = tc.settled
			}
			err := s.Check(settled)
			if (err == nil) != want || (err != nil && !strings.Contains(err.Error(), tc.law)) {
				t.Errorf("%s: Check(%v) = %v, want pass %v naming %q", tc.name, settled, err, want, tc.law)
			}
		}
	}
}
