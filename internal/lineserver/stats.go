package lineserver

import (
	"sync/atomic"

	"audiofile/internal/health"
)

// The backend's books. Health — the states and the resync counters, and
// the law BackendStats.Check states — is its internal/health Machine's,
// and its events are in its log; what this file keeps is the transport's
// own counters.

// counters are atomics so Stats never takes the transport mutex, which a
// round trip may hold for a full timeout.
type counters struct {
	requests  atomic.Uint64 // datagrams sent
	accepted  atomic.Uint64 // replies matching the live request
	stale     atomic.Uint64 // replies to earlier (timed-out) requests
	duplicate atomic.Uint64 // copies of replies already seen
	garbage   atomic.Uint64 // unparseable datagrams
	timeouts  atomic.Uint64 // round trips that exhausted every try
	slips     atomic.Uint64 // clock-slip detections on accepted replies

	recSilenceBytes atomic.Uint64 // record bytes delivered as silence
	playLostBytes   atomic.Uint64 // play bytes whose packet went unacknowledged
}

// BackendStats is the exported snapshot: what afd -stats embeds per
// lineserver device and astat renders and law-checks. Replies, the
// parseable reply datagrams received, is computed: each is classified
// exactly once, as accepted, stale or duplicate.
type BackendStats struct {
	health.Stats

	Requests  uint64 `json:"requests"`
	Replies   uint64 `json:"replies"`
	Accepted  uint64 `json:"accepted"`
	Stale     uint64 `json:"stale"`
	Duplicate uint64 `json:"duplicate"`
	Garbage   uint64 `json:"garbage"`
	Timeouts  uint64 `json:"timeouts"`
	Slips     uint64 `json:"slips"`

	RecSilenceBytes uint64 `json:"rec_silence_bytes"`
	PlayLostBytes   uint64 `json:"play_lost_bytes"`
}

// Stats snapshots the counters without touching the transport mutex.
func (b *Backend) Stats() BackendStats {
	c := &b.count
	s := BackendStats{
		Stats:           b.health.Stats(),
		Requests:        c.requests.Load(),
		Accepted:        c.accepted.Load(),
		Stale:           c.stale.Load(),
		Duplicate:       c.duplicate.Load(),
		Garbage:         c.garbage.Load(),
		Timeouts:        c.timeouts.Load(),
		Slips:           c.slips.Load(),
		RecSilenceBytes: c.recSilenceBytes.Load(),
		PlayLostBytes:   c.playLostBytes.Load(),
	}
	s.Replies = s.Accepted + s.Stale + s.Duplicate
	return s
}
