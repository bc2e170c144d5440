package aserver

import (
	"strings"
	"testing"

	"audiofile/internal/health"
	"audiofile/internal/lineserver"
	"audiofile/internal/metrics"
)

// lawCase plants one imbalance into a balanced snapshot. The plant
// breaks exactly the named law: the error names it and nothing else.
// live and settled say whether Check(false) and Check(true) pass.
type lawCase[S any] struct {
	name          string
	law           string
	plant         func(*S)
	live, settled bool
}

// checkLaws runs each case against a fresh balanced snapshot.
func checkLaws[S any](t *testing.T, balanced func() S, check func(S, bool) error, cases []lawCase[S]) {
	t.Helper()
	for _, settled := range []bool{false, true} {
		if err := check(balanced(), settled); err != nil {
			t.Fatalf("balanced snapshot: Check(%v) = %v", settled, err)
		}
	}
	for _, tc := range cases {
		s := balanced()
		tc.plant(&s)
		for _, settled := range []bool{false, true} {
			want := tc.live
			if settled {
				want = tc.settled
			}
			err := check(s, settled)
			switch {
			case (err == nil) != want:
				t.Errorf("%s: Check(%v) = %v, want pass %v", tc.name, settled, err, want)
			case err != nil && (!strings.Contains(err.Error(), tc.law) || strings.Contains(err.Error(), "\n")):
				t.Errorf("%s: Check(%v) = %q, want only the law %q", tc.name, settled, err, tc.law)
			}
		}
	}
}

// TestLawSnapshot plants a violation of every law Snapshot.Check states,
// its devices' and their lineserver backends' included. Where a law has
// a live form, an imbalance in the allowed direction passes Check(false)
// and fails Check(true); any other imbalance fails both.
func TestLawSnapshot(t *testing.T) {
	const (
		reasons   = "evictions + sheds + drains + client_closes = disconnects"
		connects  = "connects = disconnects"
		counts    = "requests = dispatch counts"
		frames    = "frames_accepted = frames_buffered + frames_discarded"
		preempted = "frames_buffered >= frames_preempted"
		parkedNow = "parked_now = 0"
		encodes   = "bcast_encodes >= bcast_chunks"
		subs      = "bcast_subs = 0"
		resyncs   = "resyncs_started = resyncs_completed + resyncs_abandoned"
		moves     = "health events = lineserver transitions"
		evicts    = "evict events = evictions"
		sheds     = "shed events = sheds"
		drains    = "drain events = drains"
	)
	balanced := func() Snapshot {
		return Snapshot{
			Requests: 10, Connects: 3, Disconnects: 3,
			Evictions: 1, Drains: 1, ClientCloses: 1,
			DispatchPlayNs:    metrics.HistogramSnapshot{Count: 4},
			DispatchRecordNs:  metrics.HistogramSnapshot{Count: 3},
			DispatchGetTimeNs: metrics.HistogramSnapshot{Count: 2},
			DispatchControlNs: metrics.HistogramSnapshot{Count: 1},
			DispatchBatch:     metrics.HistogramSnapshot{Count: 4, Sum: 10},
			Devices: []DeviceStats{{
				Name:           "als0",
				FramesAccepted: 100, FramesBuffered: 80, FramesDiscarded: 20, FramesPreempted: 10,
				ParksStarted: 5, ParksCompleted: 3, ParksDiscarded: 2,
				BcastChunks: 4, BcastEncodes: 4,
				Lineserver: &lineserver.BackendStats{
					Stats: health.Stats{ResyncsStarted: 1, ResyncsCompleted: 1},
				},
			}},
			Events: metrics.LogSnapshot{Totals: map[metrics.Kind]uint64{metrics.Evict: 1, metrics.Drain: 1, metrics.Health: 1}},
		}
	}
	event := func(k metrics.Kind) func(*Snapshot) {
		return func(s *Snapshot) { s.Events.Totals[k]++ }
	}
	dev := func(f func(*DeviceStats)) func(*Snapshot) {
		return func(s *Snapshot) { f(&s.Devices[0]) }
	}
	ls := func(f func(*lineserver.BackendStats)) func(*Snapshot) {
		return dev(func(d *DeviceStats) { f(d.Lineserver) })
	}
	checkLaws(t, balanced, Snapshot.Check, []lawCase[Snapshot]{
		{"reason ahead of its disconnect", reasons, func(s *Snapshot) { s.Evictions = 2; s.Events.Totals[metrics.Evict] = 2 }, true, false},
		{"unclassified disconnect", reasons, func(s *Snapshot) { s.Disconnects++; s.Connects++ }, false, false},
		{"client connected", connects, func(s *Snapshot) { s.Connects++ }, true, false},
		{"disconnect without connect", connects, func(s *Snapshot) { s.Disconnects++; s.Sheds++; s.Events.Totals[metrics.Shed]++ }, false, false},
		{"dispatch not yet observed", counts, func(s *Snapshot) { s.Requests++; s.DispatchBatch.Sum++ }, true, false},
		{"dispatch timed twice", counts, func(s *Snapshot) { s.DispatchGetTimeNs.Count++ }, false, false},
		{"frame neither buffered nor discarded", frames, dev(func(d *DeviceStats) { d.FramesAccepted++ }), false, false},
		{"frame discarded twice", frames, dev(func(d *DeviceStats) { d.FramesDiscarded++ }), false, false},
		{"preempted unbuffered frames", preempted, dev(func(d *DeviceStats) { d.FramesPreempted = 81 }), false, false},
		{"park outstanding", parkedNow, dev(func(d *DeviceStats) { d.ParksStarted++; d.ParkedNow++ }), true, false},
		{"chunk never encoded", encodes, dev(func(d *DeviceStats) { d.BcastChunks++ }), false, false},
		{"subscription outstanding", subs, dev(func(d *DeviceStats) { d.BcastSubs++ }), true, false},
		{"resync in flight", resyncs, func(s *Snapshot) { s.Devices[0].Lineserver.ResyncsStarted++; s.Events.Totals[metrics.Health]++ }, true, false},
		{"resync ended twice", resyncs, ls(func(b *lineserver.BackendStats) { b.ResyncsAbandoned++ }), false, false},
		{"transition being read", moves, event(metrics.Health), true, false},
		{"transition without its event", moves, ls(func(b *lineserver.BackendStats) { b.ToDown++ }), false, false},
		{"eviction being classified", evicts, event(metrics.Evict), true, false},
		{"eviction without its event", evicts, func(s *Snapshot) { s.Evictions++; s.Disconnects++; s.Connects++ }, false, false},
		{"shed being classified", sheds, event(metrics.Shed), true, false},
		{"shed without its event", sheds, func(s *Snapshot) { s.Sheds++; s.Disconnects++; s.Connects++ }, false, false},
		{"drain being classified", drains, event(metrics.Drain), true, false},
		{"drain without its event", drains, func(s *Snapshot) { s.Drains++; s.Disconnects++; s.Connects++ }, false, false},
	})
}

// TestLawRouter plants a violation of every law RouterSnapshot.Check
// states, its backends' health law included.
func TestLawRouter(t *testing.T) {
	const (
		setups  = "accepted = routes + redirects + route_errors"
		routes  = "routes = closed_client + closed_backend + failovers_started"
		resyncs = "backend b1: resyncs_started = resyncs_completed + resyncs_abandoned"
		dials   = "dial-error events = dial_errors"
		moves   = "health events = backend transitions"
	)
	balanced := func() RouterSnapshot {
		return RouterSnapshot{
			Accepted: 10, Routes: 6, Redirects: 3, RouteErrors: 1,
			ClosedClient: 3, ClosedBackend: 1, FailoversStarted: 2,
			Backends: []RouterBackendStats{
				{Name: "b0", DialErrors: 1},
				{Name: "b1", Stats: health.Stats{ResyncsStarted: 2, ResyncsCompleted: 1, ResyncsAbandoned: 1}},
			},
			Events: metrics.LogSnapshot{Totals: map[metrics.Kind]uint64{metrics.DialError: 1, metrics.Health: 2}},
		}
	}
	event := func(k metrics.Kind) func(*RouterSnapshot) {
		return func(s *RouterSnapshot) { s.Events.Totals[k]++ }
	}
	b1 := func(f func(*RouterBackendStats)) func(*RouterSnapshot) {
		return func(s *RouterSnapshot) { f(&s.Backends[1]) }
	}
	checkLaws(t, balanced, RouterSnapshot.Check, []lawCase[RouterSnapshot]{
		{"setup in flight", setups, func(s *RouterSnapshot) { s.Accepted++ }, true, false},
		{"setup counted twice", setups, func(s *RouterSnapshot) { s.Redirects = 4 }, false, false},
		{"session active", routes, func(s *RouterSnapshot) { s.Accepted++; s.Routes++ }, true, false},
		{"session closed twice", routes, func(s *RouterSnapshot) { s.ClosedClient++ }, false, false},
		{"resync in flight", resyncs, func(s *RouterSnapshot) { s.Backends[1].ResyncsStarted++; s.Events.Totals[metrics.Health]++ }, true, false},
		{"resync ended twice", resyncs, b1(func(b *RouterBackendStats) { b.ResyncsCompleted = 2 }), false, false},
		{"dial error being counted", dials, event(metrics.DialError), true, false},
		{"dial error without its event", dials, func(s *RouterSnapshot) { s.Backends[0].DialErrors++ }, false, false},
		{"transition being read", moves, event(metrics.Health), true, false},
		{"transition without its event", moves, b1(func(b *RouterBackendStats) { b.ToDown++ }), false, false},
	})
}
