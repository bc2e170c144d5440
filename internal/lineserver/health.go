package lineserver

import (
	"sync"
	"sync/atomic"
	"time"
)

// Self-healing: the backend runs a detect/decide/act loop over the health
// of its UDP peer, in the style of the Self-Healing Audio System's
// recovery cycle, generalizing the paper's §8.3 clock-slip
// resynchronization to the whole transport.
//
//   - detect: every round trip classifies its outcome. A run of
//     FailThreshold consecutive round-trip failures means the box (or
//     the path to it) is gone, not just a lost packet; an accepted
//     reply whose timestamp is further than SlipThreshold frames from
//     the extrapolated estimate means the box's clock stepped (a
//     reboot, a firmware stall).
//   - decide: crossing the failure threshold moves the backend from
//     healthy to suspect and wakes the healer exactly once; a slip is
//     acted on inline (the new time base is adopted and the
//     monotonicity clamp released).
//   - act: the healer resynchronizes — re-Reset plus device-time
//     re-establishment — with bounded exponential backoff. Success
//     returns the backend to healthy; exhausting the attempts abandons
//     the resync (state "down") until a fresh failure run re-arms it.
//
// Every transition is counted and recorded as an event, and the
// counters obey exact conservation laws once the backend is closed:
//
//	Replies == Accepted + Stale + Duplicate
//	ResyncsStarted == ResyncsCompleted + ResyncsAbandoned
//
// In a live snapshot both are one-sided (Replies >= the sum,
// ResyncsStarted >= the sum): the aggregate counter is incremented
// first and read last.

// Health states.
const (
	StateHealthy   = "healthy"
	StateSuspect   = "suspect"   // failure threshold crossed, healer waking
	StateResyncing = "resyncing" // healer mid-recovery
	StateDown      = "down"      // resync abandoned; degraded until re-armed
)

var stateNames = []string{StateHealthy, StateSuspect, StateResyncing, StateDown}

const (
	stateHealthy = iota
	stateSuspect
	stateResyncing
	stateDown
)

// Default tuning; WithHealthTuning overrides (tests use tiny values).
const (
	defaultFailThreshold  = 3
	defaultResyncAttempts = 4
	defaultResyncBackoff  = 25 * time.Millisecond
	maxResyncBackoff      = 500 * time.Millisecond
)

// HealthEvent is one recorded detect/decide/act transition.
type HealthEvent struct {
	When   time.Time `json:"when"`
	From   string    `json:"from"`
	To     string    `json:"to"`
	Reason string    `json:"reason"`
}

// backendHealth carries the state machine and the counters. Counters
// are atomics so Stats never takes the transport mutex (which a round
// trip may hold for a full timeout); events live under their own small
// mutex for the same reason.
type backendHealth struct {
	state       atomic.Int32
	consecFails atomic.Int64

	requests  atomic.Uint64 // datagrams sent
	replies   atomic.Uint64 // parseable reply datagrams received
	accepted  atomic.Uint64 // replies matching the live request
	stale     atomic.Uint64 // replies to earlier (timed-out) requests
	duplicate atomic.Uint64 // copies of replies already seen
	garbage   atomic.Uint64 // unparseable datagrams
	timeouts  atomic.Uint64 // round trips that exhausted every try
	slips     atomic.Uint64 // clock-slip detections on accepted replies

	resyncsStarted   atomic.Uint64
	resyncsCompleted atomic.Uint64
	resyncsAbandoned atomic.Uint64
	resyncAttempts   atomic.Uint64 // individual recovery round trips

	recSilenceBytes atomic.Uint64 // record bytes delivered as silence
	playLostBytes   atomic.Uint64 // play bytes whose packet went unacknowledged

	evMu   sync.Mutex
	events []HealthEvent
}

// maxEvents bounds the transition log; it is a diagnostic ring, not a
// durable history.
const maxEvents = 64

// setState records a transition and its event. Reason-free state reads
// go through state.Load directly.
func (h *backendHealth) setState(to int32, reason string) {
	from := h.state.Swap(to)
	if from == to {
		return
	}
	h.evMu.Lock()
	if len(h.events) >= maxEvents {
		copy(h.events, h.events[1:])
		h.events = h.events[:maxEvents-1]
	}
	h.events = append(h.events, HealthEvent{
		When: time.Now(), From: stateNames[from], To: stateNames[to], Reason: reason,
	})
	h.evMu.Unlock()
}

// BackendStats is the exported health snapshot: what afd -stats embeds
// per lineserver device and astat renders and law-checks.
type BackendStats struct {
	State       string `json:"state"`
	ConsecFails int64  `json:"consec_fails"`

	Requests  uint64 `json:"requests"`
	Replies   uint64 `json:"replies"`
	Accepted  uint64 `json:"accepted"`
	Stale     uint64 `json:"stale"`
	Duplicate uint64 `json:"duplicate"`
	Garbage   uint64 `json:"garbage"`
	Timeouts  uint64 `json:"timeouts"`
	Slips     uint64 `json:"slips"`

	ResyncsStarted   uint64 `json:"resyncs_started"`
	ResyncsCompleted uint64 `json:"resyncs_completed"`
	ResyncsAbandoned uint64 `json:"resyncs_abandoned"`
	ResyncAttempts   uint64 `json:"resync_attempts"`

	RecSilenceBytes uint64 `json:"rec_silence_bytes"`
	PlayLostBytes   uint64 `json:"play_lost_bytes"`

	Events []HealthEvent `json:"events,omitempty"`
}

// Stats snapshots the health counters without touching the transport
// mutex. Read order makes the one-sided laws hold in every live
// snapshot: outcome classifications first, their aggregates last
// (the increments happen in the opposite order).
func (b *Backend) Stats() BackendStats {
	h := &b.health
	s := BackendStats{
		Accepted:         h.accepted.Load(),
		Stale:            h.stale.Load(),
		Duplicate:        h.duplicate.Load(),
		Garbage:          h.garbage.Load(),
		Timeouts:         h.timeouts.Load(),
		Slips:            h.slips.Load(),
		ResyncsCompleted: h.resyncsCompleted.Load(),
		ResyncsAbandoned: h.resyncsAbandoned.Load(),
		ResyncAttempts:   h.resyncAttempts.Load(),
		RecSilenceBytes:  h.recSilenceBytes.Load(),
		PlayLostBytes:    h.playLostBytes.Load(),
		ConsecFails:      h.consecFails.Load(),
	}
	// Aggregates last (see the law comment above).
	s.Replies = h.replies.Load()
	s.ResyncsStarted = h.resyncsStarted.Load()
	s.Requests = h.requests.Load()
	s.State = stateNames[h.state.Load()]
	h.evMu.Lock()
	s.Events = append([]HealthEvent(nil), h.events...)
	h.evMu.Unlock()
	return s
}

// Events returns the recorded health transitions.
func (b *Backend) Events() []HealthEvent {
	b.health.evMu.Lock()
	defer b.health.evMu.Unlock()
	return append([]HealthEvent(nil), b.health.events...)
}

// State returns the current health state name.
func (b *Backend) State() string { return stateNames[b.health.state.Load()] }

// noteFailure records one fully failed round trip (detect) and decides
// whether to arm the healer. Called with b.mu held.
func (b *Backend) noteFailure() {
	h := &b.health
	h.timeouts.Add(1)
	if h.consecFails.Add(1) < int64(b.failThreshold) {
		return
	}
	// Threshold crossed: healthy and down states escalate to suspect;
	// an in-flight resync keeps failing on its own schedule.
	if s := h.state.Load(); s == stateHealthy || s == stateDown {
		h.consecFails.Store(0)
		h.setState(stateSuspect, "failure threshold")
		select {
		case b.healCh <- struct{}{}:
		default:
		}
	}
}

// noteSuccess records an accepted round trip. A success while suspect or
// down is a spontaneous recovery (the network healed before we acted).
// Called with b.mu held.
func (b *Backend) noteSuccess() {
	h := &b.health
	h.consecFails.Store(0)
	if s := h.state.Load(); s == stateSuspect || s == stateDown {
		h.setState(stateHealthy, "recovered")
	}
}

// healer is the act stage: it waits for an escalation, then
// resynchronizes with bounded backoff. One goroutine per backend,
// joined by Close; a resync interrupted by Close counts as abandoned so
// the conservation law stays exact.
func (b *Backend) healer() {
	defer b.wg.Done()
	for {
		select {
		case <-b.done:
			return
		case <-b.healCh:
		}
		if b.health.state.Load() != stateSuspect {
			continue // stale escalation: an op already recovered us
		}
		b.health.resyncsStarted.Add(1)
		b.health.setState(stateResyncing, "resync start")
		completed := false
		aborted := false
		backoff := b.resyncBackoff
		for attempt := 0; attempt < b.resyncMaxTries; attempt++ {
			if attempt > 0 {
				t := time.NewTimer(backoff)
				select {
				case <-b.done:
					t.Stop()
					aborted = true
				case <-t.C:
				}
				if backoff *= 2; backoff > maxResyncBackoff {
					backoff = maxResyncBackoff
				}
			}
			if aborted {
				break
			}
			b.health.resyncAttempts.Add(1)
			b.mu.Lock()
			ok := b.reestablishLocked()
			b.mu.Unlock()
			if ok {
				completed = true
				break
			}
		}
		b.health.consecFails.Store(0)
		if completed {
			b.mu.Lock()
			b.monotonicValid = false // the box may have rebooted; let time step
			b.mu.Unlock()
			b.health.resyncsCompleted.Add(1)
			b.health.setState(stateHealthy, "resync complete")
		} else {
			b.health.resyncsAbandoned.Add(1)
			reason := "resync abandoned"
			if aborted {
				reason = "resync aborted by close"
			}
			b.health.setState(stateDown, reason)
			if aborted {
				return
			}
		}
	}
}

// reestablishLocked is one recovery attempt: re-Reset the box, then
// re-establish the device-time base with a loopback ping (the accepted
// reply refreshes lastTime/lastWhen inside roundTrip). Single tries —
// the healer's backoff loop is the retry policy here.
func (b *Backend) reestablishLocked() bool {
	if b.roundTrip(&Packet{Fn: FnReset}, 1) == nil {
		return false
	}
	return b.roundTrip(&Packet{Fn: FnLoopback}, 1) != nil
}
