package aserver

import (
	"cmp"
	"math"
	"sync/atomic"
	"time"

	"audiofile/internal/metrics"
	"audiofile/internal/proto"
)

// Overload protection and graceful degradation: the policies that keep
// the real-time data plane healthy no matter what clients do. Three
// layers (see DESIGN.md, "Overload & shutdown"):
//
//   - Per-connection: every client's outgoing queue has a budget on its
//     level — marshaled bytes plus a fixed overhead per message. A
//     consumer that stays over budget — or misses a write deadline — for
//     longer than its grace is evicted with a typed protocol error
//     (Overload). Senders never block: the engine and the other clients'
//     writers are unaffected.
//   - Server-wide: budgets on client count, total queued bytes, and
//     pooled ingress bytes lent out. Exceeding one sheds the
//     oldest-idle (or largest-queue) client rather than degrading all.
//   - Shutdown: Drain stops accepting, lets play rings flush to the
//     device tail and parks resolve, then disconnects the remaining
//     clients with a typed Drain error and closes.
//
// Every disconnect is classified exactly once: the close-reason law of
// Snapshot.Check.

// Close reasons recorded at eviction time and classified into counters
// by removeClient. Zero (the default) means the client went away on its
// own: transport EOF, protocol error, or KillClient.
const (
	closeReasonClient uint32 = iota
	closeReasonEvict         // over send budget or missed write deadline
	closeReasonShed          // sacrificed to a server-wide budget
	closeReasonDrain         // graceful shutdown
)

// closeKinds is the event each close reason but the client's own records.
var closeKinds = [...]metrics.Kind{closeReasonEvict: metrics.Evict, closeReasonShed: metrics.Shed, closeReasonDrain: metrics.Drain}

// flowVerdict is the eviction policy's answer for one observation.
type flowVerdict uint8

const (
	flowOK    flowVerdict = iota // under budget
	flowOver                     // over budget, inside the allowance
	flowEvict                    // over budget past the allowance
)

// evictPolicy is the per-client slow-consumer state machine, the one
// judge of a client's egress queue. What it judges is the queue level
// (outQueue.level: marshaled bytes plus msgOverheadBytes per message),
// so a pile of tiny messages and a pile of bytes are the same excursion.
// A client may exceed its budget transiently (a burst the writer is
// still flushing); it is evicted only after staying over budget for
// longer than its allowance, the grace period.
//
// The state is one atomic (the instant the client went over budget), so
// the send hot path, the writer and the periodic sweep can all run the
// policy without sharing a lock.
type evictPolicy struct {
	budget int64         // queue-level budget
	grace  time.Duration // how long a client may stay over budget

	overSince atomic.Int64 // unix nanos when the budget was crossed; 0 = under
}

// onQueue observes the queue level at time now (unix nanos) and returns
// the verdict. Called on over-budget enqueues and by the sweep.
func (p *evictPolicy) onQueue(level, now int64) flowVerdict {
	if level <= p.budget {
		p.overSince.Store(0)
		return flowOK
	}
	since := p.overSince.Load()
	if since == 0 {
		// First observation over budget starts the clock. CAS so racing
		// observers agree on one start time.
		p.overSince.CompareAndSwap(0, now)
		return flowOver
	}
	if time.Duration(now-since) > p.grace {
		return flowEvict
	}
	return flowOver
}

// onDrain observes the queue level after the writer flushed. A client
// back under budget has recovered: the clock resets, and a later
// excursion starts a fresh allowance.
func (p *evictPolicy) onDrain(level int64) {
	if level <= p.budget && p.overSince.Load() != 0 {
		p.overSince.Store(0)
	}
}

// writeAllowance returns how long an over-budget client's next flush
// may take before it counts as a missed deadline: the remainder of the
// policy allowance, floored so a deadline armed late still permits a
// write. Reports false while under budget (no deadline armed — the
// common case stays free of timer churn).
func (p *evictPolicy) writeAllowance(now int64) (time.Duration, bool) {
	since := p.overSince.Load()
	if since == 0 {
		return 0, false
	}
	rem := p.grace - time.Duration(now-since)
	if rem < 5*time.Millisecond {
		rem = 5 * time.Millisecond
	}
	return rem, true
}

// budgets is the server-wide resource policy, resolved from Options.
type budgets struct {
	maxClients   int           // registered clients before oldest-idle shedding; 0 = unlimited
	clientQueue  int64         // per-client queue-level budget
	serverQueue  int64         // total queued bytes across clients
	frameCeiling int64         // pooled ingress bytes lent out
	evictGrace   time.Duration // how long a client may stay over budget
	sweepEvery   time.Duration // overload sweep period
}

// initOverload resolves the budget options and starts the periodic
// overload sweep. Called from New.
func (s *Server) initOverload() {
	b := &s.budget
	b.maxClients = s.opts.MaxClients
	b.clientQueue = byteBudget(int64(s.opts.ClientQueueBytes), 256<<10)
	b.evictGrace = cmp.Or(s.opts.EvictGrace, 250*time.Millisecond)
	// The server queue defaults to 64 client queues, unbounded when
	// they would overflow.
	serverQueue := int64(math.MaxInt64)
	if b.clientQueue <= math.MaxInt64/64 {
		serverQueue = 64 * b.clientQueue
	}
	b.serverQueue = byteBudget(s.opts.ServerQueueBytes, serverQueue)
	b.frameCeiling = byteBudget(s.opts.FrameBytesCeiling, 16<<20)
	// The sweep is the time-based half of the eviction policy: send()
	// catches a client crossing its budget, the sweep catches one that
	// sits over budget while nothing new is being queued (its writer
	// wedged behind a transport that stopped draining). Half the grace
	// period bounds how far past its allowance a silent client can live.
	b.sweepEvery = max(b.evictGrace/2, 5*time.Millisecond)
	// The timer reaches s only through to, which Close empties: the
	// runtime may keep a stopped timer, and what it holds, to its deadline.
	to := new(atomic.Pointer[Server])
	to.Store(s)
	s.clientMu.Lock()
	s.sweep, s.sweepTo = time.AfterFunc(b.sweepEvery, func() {
		if s := to.Load(); s != nil {
			s.sweepOverload()
		}
	}), to
	s.clientMu.Unlock()
}

// byteBudget resolves a byte budget option: zero selects def, and a
// negative value means unbounded.
func byteBudget(opt, def int64) int64 {
	switch {
	case opt == 0:
		return def
	case opt < 0:
		return math.MaxInt64
	}
	return opt
}

// sweepOverload runs the eviction policy over every live client and
// enforces the server-wide budgets. It is the sweep timer's callback and
// re-arms it, unless Close has stopped it.
func (s *Server) sweepOverload() {
	nanos := time.Now().UnixNano()
	var largest *client
	var largestBytes, largestLevel int64
	var total int64
	s.clientMu.RLock()
	if s.sweep == nil {
		s.clientMu.RUnlock()
		return
	}
	for c := range s.clients {
		if c.dead.Load() {
			continue
		}
		q, level := c.out.load()
		total += q
		if q > largestBytes {
			largest, largestBytes, largestLevel = c, q, level
		}
		if level > c.flow.budget {
			c.overBudget(level, nanos)
		}
	}
	s.sweep.Reset(s.budget.sweepEvery)
	s.clientMu.RUnlock()
	// Server-wide queued bytes (marshaled bytes: this one is a memory
	// bound): close the largest queue rather than let one burst starve
	// every writer of pooled buffers. A victim over its own budget is a
	// slow consumer caught early, not a sacrifice: that is an eviction.
	if total > s.budget.serverQueue && largest != nil && !largest.dead.Load() {
		reason := closeReasonShed
		if largestLevel > largest.flow.budget {
			reason = closeReasonEvict
		}
		largest.evict(reason, proto.ErrOverload, "the largest queue, server queue over budget")
	}
	// Pooled ingress bytes lent out: a pileup of half-sent requests and
	// parked plays past the ceiling sheds the oldest-idle client.
	if s.sm.frameBytes.Load() > s.budget.frameCeiling {
		s.shedOldestIdle(nil)
	}
}

// shedOldestIdle evicts the live client with the oldest last-dispatched
// request (excluding exclude), reporting whether a candidate was found.
func (s *Server) shedOldestIdle(exclude *client) bool {
	var victim *client
	var oldest int64 = math.MaxInt64
	s.clientMu.RLock()
	for c := range s.clients {
		if c == exclude || c.dead.Load() {
			continue
		}
		if t := c.lastActive.Load(); t < oldest {
			victim, oldest = c, t
		}
	}
	s.clientMu.RUnlock()
	if victim == nil {
		return false
	}
	victim.evict(closeReasonShed, proto.ErrOverload, "shedding oldest-idle client, server over budget")
	return true
}

// getFrame / putFrame move frame_bytes_in_flight, the bytes the pool has
// lent to ingress, with the pool op, for a parked play's copy of its
// remaining data; a reader's buffer is counted while it holds bytes
// (client.hold: a DialPipe or netsim connection blocks in conn.Read
// holding one, so it counts while open). Zero once clients are gone.
func (s *Server) getFrame(n int) *proto.Buffer {
	s.sm.frameBytes.Add(int64(n))
	return proto.GetBuffer(n)
}

func (s *Server) putFrame(b *proto.Buffer) {
	s.sm.frameBytes.Add(-int64(b.Len()))
	b.Put()
}

// Drain performs a graceful shutdown: stop accepting new connections,
// let the data plane run until every play ring has been consumed to the
// device tail and every park has resolved (or timeout passes), then
// disconnect the remaining clients with a typed Drain error and Close.
// Calling Drain again — or after Close — just closes.
func (s *Server) Drain(timeout time.Duration) {
	if !s.draining.CompareAndSwap(false, true) {
		s.Close()
		return
	}
	s.ctl.Lock()
	closed := s.closed
	s.stopAcceptingLocked()
	s.ctl.Unlock()
	if closed {
		return
	}
	s.pollUntil(2*time.Millisecond, time.Now().Add(timeout), s.drained)
	s.ctl.Lock()
	for c := range s.clients {
		c.evict(closeReasonDrain, proto.ErrDrain, "server draining")
	}
	s.ctl.Unlock()
	s.Close()
}

// drained reports whether every engine's play ring has been consumed to
// the device tail and no parks are outstanding. Parks that cannot
// resolve inside the drain window are discarded deterministically by the
// engines' shutdown path in Close.
func (s *Server) drained() bool {
	for _, e := range s.engines {
		e.mu.Lock()
		ok := len(e.parks) == 0 && e.root.PendingPlayFrames() == 0
		e.mu.Unlock()
		if !ok {
			return false
		}
	}
	return true
}
