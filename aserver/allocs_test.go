//go:build !race

package aserver

import (
	"fmt"
	"testing"
)

// The allocation gates: each gated benchmark's fixture, held to 0
// allocations per iteration at steady state. Under -race the counts
// include the detector's own, so the gates run without it.

// requireNoAllocs fails t unless op allocates nothing per call, averaged
// over runs calls after a warm-up call.
func requireNoAllocs(t *testing.T, name string, runs int, op func()) {
	t.Helper()
	if n := testing.AllocsPerRun(runs, op); n != 0 {
		t.Errorf("%s: %v allocs per iteration, want 0", name, n)
	}
}

// TestDispatchSocketAllocs is BenchmarkDispatchSocket's gate: each of its
// round trips, server included.
func TestDispatchSocketAllocs(t *testing.T) {
	for _, rt := range socketRoundTrips() {
		roundTrip, check := rt.serve(t)
		requireNoAllocs(t, rt.name, 200, roundTrip)
		check()
	}
}

// TestDispatchAllocs is the gate of the other BenchmarkDispatch*: play
// with mixing, plain and ADPCM record, a control op, and GetTime groups of
// sixteen and of one.
func TestDispatchAllocs(t *testing.T) {
	for _, dc := range []struct {
		name  string
		ready func(testing.TB) func()
	}{
		{"PlayMix", dispatchPlayMix},
		{"Record", dispatchRecord},
		{"RecordADPCM", dispatchRecordADPCM},
		{"Control", dispatchControl},
	} {
		requireNoAllocs(t, dc.name, 100, dc.ready(t))
	}
	for _, bc := range dispatchBatches {
		requireNoAllocs(t, "Batch/"+bc.name, 100, dispatchBatch(t, bc.size))
	}
}

// TestSmallOpFloodAllocs is BenchmarkSmallOpFlood's gate, at both burst
// sizes.
func TestSmallOpFloodAllocs(t *testing.T) {
	for _, burst := range smallOpBursts {
		requireNoAllocs(t, fmt.Sprintf("burst=%d", burst), 20, smallOpFlood(t, burst))
	}
}

// TestUpdateSchedulerAllocs is BenchmarkUpdateScheduler's gate, at every
// fleet size.
func TestUpdateSchedulerAllocs(t *testing.T) {
	for _, devs := range schedulerFleets {
		requireNoAllocs(t, fmt.Sprintf("devs=%d", devs), 200, updateScheduler(t, devs))
	}
}

// TestBroadcastFanoutAllocs is BenchmarkBroadcastFanout's gate, at its
// smaller fleet.
func TestBroadcastFanoutAllocs(t *testing.T) {
	requireNoAllocs(t, "listeners=1000", 20, broadcastFanout(t, 1000))
}
