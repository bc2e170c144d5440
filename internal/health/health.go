// Package health is the repository's one detect/decide/act loop, in the
// shape of the Self-Healing Audio System's recovery cycle: the lineserver
// backend runs a Machine over its UDP box, the fleet router one per afd.
// Callers detect (Failure, Success, Escalate) and supply the act (Heal);
// the Machine decides, owns the states and counters, and records each
// transition in the event log its owner hands it (Config.Log).
//
// Threshold consecutive failures, or one Escalate, move a healthy
// machine to resyncing and start that resync's one goroutine: Heal up to
// Attempts times, the wait between tries doubling from Backoff up to
// 500 ms, ending healthy (completed) or down (abandoned). Only a healthy
// machine escalates. A success returns down to healthy and leaves
// resyncing to Heal's verdict; down is left only by a success, so a peer
// that stays dead is not resynced again on every run of failures. A
// machine not resyncing holds no goroutine.
//
// Every resync ends once, completed or abandoned (a Close mid-resync
// abandons it); the law is Stats.Check.
package health

import (
	"sync"
	"sync/atomic"
	"time"

	"audiofile/internal/metrics"
)

// The states, by their report names.
const (
	Healthy   = "healthy"
	Resyncing = "resyncing" // Heal attempts under way
	Down      = "down"      // resync abandoned; left only by a success
)

const (
	healthy int32 = iota
	resyncing
	down
)

var names = [...]string{Healthy, Resyncing, Down}

// Defaults for zero Config fields, and the backoff cap.
const (
	defaultThreshold = 3
	defaultAttempts  = 4
	defaultBackoff   = 25 * time.Millisecond
	maxBackoff       = 500 * time.Millisecond
)

// Config is what a caller supplies. Zero numbers take the defaults.
type Config struct {
	Threshold int           // consecutive failures that escalate a healthy machine
	Attempts  int           // Heal tries per resync
	Backoff   time.Duration // wait before the second try; doubles, capped at maxBackoff
	Heal      func() bool   // one recovery attempt; true when the peer is back
	Log       *metrics.Log  // where transitions are recorded; nil keeps a private log
	Name      string        // the peer, as the log's events name it
}

// Stats is a machine's snapshot; callers embed it in their own.
type Stats struct {
	State       string `json:"state"`
	ConsecFails int64  `json:"consec_fails"`

	ToHealthy uint64 `json:"to_healthy"`
	ToDown    uint64 `json:"to_down"`

	ResyncsStarted   uint64 `json:"resyncs_started"`
	ResyncsCompleted uint64 `json:"resyncs_completed"`
	ResyncsAbandoned uint64 `json:"resyncs_abandoned"`
	ResyncAttempts   uint64 `json:"resync_attempts"`
}

// Check states the machine's law: every resync started ends once,
// completed or abandoned (a Close mid-resync abandons it), so the books
// settle when the machine is closed. The three count transitions (into
// resyncing, resyncing→healthy, resyncing→down) and Stats reads them
// under the lock that makes them, so a live snapshot is short by exactly
// the resync in progress, whatever order its fields are read in.
func (s Stats) Check(settled bool) error {
	return metrics.Law("resyncs_started = resyncs_completed + resyncs_abandoned",
		s.ResyncsStarted, s.ResyncsCompleted+s.ResyncsAbandoned, settled)
}

// Moves is the transitions the machine has made, one event each in its
// log.
func (s Stats) Moves() uint64 {
	return s.ToHealthy + s.ResyncsStarted + s.ToDown
}

// Machine is one peer's health. State reads are atomic loads;
// transitions serialize on mu, which guards their counts, orders their
// events in the log, and closes the gate to new resyncs.
type Machine struct {
	cfg Config

	state    atomic.Int32
	fails    atomic.Int64
	attempts atomic.Uint64 // Heal calls

	mu     sync.Mutex
	moves  [len(names)][len(names)]uint64 // transitions, by from and to
	closed bool                           // Close has run: no resync starts

	done chan struct{} // closed by Close: a resync in its backoff ends
	wg   sync.WaitGroup
}

// New returns a healthy machine. It starts no goroutine; each resync
// starts its own.
func New(cfg Config) *Machine {
	if cfg.Threshold <= 0 {
		cfg.Threshold = defaultThreshold
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = defaultAttempts
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = defaultBackoff
	}
	if cfg.Log == nil {
		cfg.Log = new(metrics.Log)
	}
	return &Machine{cfg: cfg, done: make(chan struct{})}
}

// Close refuses later escalations and waits for a resync in progress: one
// in its backoff is abandoned at once, one in Heal when Heal returns.
// Safe to call more than once.
func (m *Machine) Close() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.done)
	}
	m.mu.Unlock()
	m.wg.Wait()
}

// State returns the current state's name.
func (m *Machine) State() string { return names[m.state.Load()] }

// Healthy reports whether the peer may be given new work.
func (m *Machine) Healthy() bool { return m.state.Load() == healthy }

// Failure records one failed operation against the peer.
func (m *Machine) Failure() {
	if m.fails.Add(1) >= int64(m.cfg.Threshold) {
		m.Escalate("failure threshold")
	}
}

// Escalate starts a resync now, without waiting for the threshold: the
// caller has seen the peer fail in a way one failure proves. A no-op
// unless healthy, and after Close.
func (m *Machine) Escalate(reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || !m.moveLocked(1<<healthy, resyncing, reason) {
		return
	}
	m.fails.Store(0)
	m.wg.Add(1) // under mu: Close's Wait never races an Add
	go m.resync()
}

// Success records one answered operation: the failure run ends, and a
// down peer is healthy again. A resync is left to Heal's verdict.
func (m *Machine) Success() {
	m.fails.Store(0)
	m.move(1<<down, healthy, "recovered")
}

// move makes a transition to `to` when the current state is in the from
// set (a bit per state), and reports whether it did. The transition is
// counted and recorded under mu, so a Stats read never counts one the log
// does not hold yet.
func (m *Machine) move(from uint8, to int32, reason string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.moveLocked(from, to, reason)
}

func (m *Machine) moveLocked(from uint8, to int32, reason string) bool {
	cur := m.state.Load()
	if from&(1<<cur) == 0 {
		return false
	}
	m.state.Store(to)
	m.moves[cur][to]++
	m.cfg.Log.Record(metrics.Health, m.cfg.Name, names[cur]+" -> "+names[to]+" ("+reason+")")
	return true
}

// resync is the act stage, one goroutine per escalation: it takes the
// machine from resyncing to healthy or down.
func (m *Machine) resync() {
	defer m.wg.Done()
	ok, closed := m.heal()
	m.fails.Store(0)
	switch {
	case ok:
		m.move(1<<resyncing, healthy, "resync complete")
	case closed:
		m.move(1<<resyncing, down, "resync aborted by close")
	default:
		m.move(1<<resyncing, down, "resync abandoned")
	}
}

// heal runs Heal up to Attempts times with doubling backoff between them.
func (m *Machine) heal() (ok, closed bool) {
	backoff := m.cfg.Backoff
	for attempt := 0; attempt < m.cfg.Attempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-m.done:
				t.Stop()
				return false, true
			case <-t.C:
			}
			backoff = min(2*backoff, maxBackoff)
		}
		m.attempts.Add(1)
		if m.cfg.Heal() {
			return true, false
		}
	}
	return false, false
}

// Stats snapshots the machine: one read of the transition counts under
// their lock (see the package comment).
func (m *Machine) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	into := func(to int32) (n uint64) {
		for from := range m.moves {
			n += m.moves[from][to]
		}
		return n
	}
	return Stats{
		State:            m.State(),
		ConsecFails:      m.fails.Load(),
		ToHealthy:        into(healthy),
		ToDown:           into(down),
		ResyncsStarted:   into(resyncing),
		ResyncsCompleted: m.moves[resyncing][healthy],
		ResyncsAbandoned: m.moves[resyncing][down],
		ResyncAttempts:   m.attempts.Load(),
	}
}
