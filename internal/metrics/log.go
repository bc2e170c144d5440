package metrics

import (
	"sync"
	"time"
)

// Kind classifies an event: who records it, and what changed.
type Kind string

// The kinds: the server's client closes and setup refusals, a health
// machine's transitions, the lineserver backend's first transport
// failure, and the router's session dial errors, failovers, redirects
// and route errors.
const (
	Evict          Kind = "evict"
	Shed           Kind = "shed"
	Drain          Kind = "drain"
	Refuse         Kind = "refuse"
	Health         Kind = "health"
	TransportError Kind = "transport-error"
	DialError      Kind = "dial-error"
	Failover       Kind = "failover"
	Redirect       Kind = "redirect"
	RouteError     Kind = "route-error"
)

var kinds = [...]Kind{Evict, Shed, Drain, Refuse, Health, TransportError, DialError, Failover, Redirect, RouteError}

// logSize is how many events a Log holds: a flight recorder, not a history.
const logSize = 256

// Event is one recorded state transition.
type Event struct {
	Seq     uint64    `json:"seq"` // per log, from 1, without gaps
	When    time.Time `json:"when"`
	Kind    Kind      `json:"kind"`
	Subject string    `json:"subject"` // what changed: a client's address, a backend's name
	Detail  string    `json:"detail"`  // why, or from and to
}

// Log is the one record of state transitions: a ring of the newest
// logSize events, each stamped with a sequence number and the wall time,
// and a total per kind. Each transition is recorded once, by one Record
// call; a counter that would mark the same moment is read from the
// totals instead, and one that marks another is tied to its kind's total
// by a Law. The zero value is ready to use, and Record allocates nothing.
type Log struct {
	// Logf, if set before the first Record, prints each event as a line:
	// the one caller of an owner's Options.Logf.
	Logf func(format string, args ...any)

	mu     sync.Mutex
	seq    uint64
	ring   [logSize]Event
	totals [len(kinds)]uint64
}

// Record appends one event. It takes only the log's own lock, innermost
// in every lock order, and prints after releasing it.
func (l *Log) Record(kind Kind, subject, detail string) {
	i := 0
	for kinds[i] != kind {
		i++ // an unknown kind panics, out of range
	}
	l.mu.Lock()
	l.seq++
	seq := l.seq
	l.ring[(seq-1)%logSize] = Event{seq, time.Now(), kind, subject, detail}
	l.totals[i]++
	l.mu.Unlock()
	if l.Logf != nil {
		l.Logf("%s #%d %s: %s", kind, seq, subject, detail)
	}
}

// Since copies out, oldest first, the events held numbered above seq, and
// reports how many of those the ring has overwritten.
func (l *Log) Since(seq uint64) (events []Event, lost uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if oldest := l.seq - min(l.seq, logSize) + 1; seq+1 < oldest {
		lost, seq = oldest-seq-1, oldest-1
	}
	for s := seq + 1; s <= l.seq; s++ {
		events = append(events, l.ring[(s-1)%logSize])
	}
	return events, lost
}

// LogSnapshot is a log in a /stats snapshot: the totals of the kinds
// recorded, then the events held, oldest first, and how many the ring had
// overwritten.
type LogSnapshot struct {
	Totals map[Kind]uint64 `json:"totals,omitempty"`
	Lost   uint64          `json:"lost"`
	Events []Event         `json:"events"`
}

// Snapshot copies the log, the totals before the events: every event
// they count is in Events or Lost.
func (l *Log) Snapshot() LogSnapshot {
	s := LogSnapshot{Totals: make(map[Kind]uint64)}
	l.mu.Lock()
	for i, n := range l.totals {
		if n != 0 {
			s.Totals[kinds[i]] = n
		}
	}
	l.mu.Unlock()
	s.Events, s.Lost = l.Since(0)
	return s
}
