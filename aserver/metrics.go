package aserver

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"audiofile/internal/lineserver"
	"audiofile/internal/metrics"
	"audiofile/internal/vdev"
)

// This file is the observability spine of the server: the typed metric
// sets the hot paths update, and the consistent snapshot the export
// endpoints read.
//
// Ownership rules (one owner per counter, so totals are trustworthy):
//
//   - Dispatch batches and latency: dispatchHotGroup and dispatchControl
//     in dispatch.go, on the dispatching goroutine.
//   - Engine lock wait/hold: the lockers themselves (dispatchHotGroup and
//     the engine's timer pass).
//   - Play ingress chunks: the PlaySamples case of dispatchHotGroup.
//   - Record egress chunks: finishRecordReply, the single seal point
//     every record reply passes through (first-try and retry).
//   - Park lifecycle: registration in engine.parkLocked, release in
//     engine.finishPark, both under the engine lock.
//   - Connects/disconnects: the control plane (loop.go register /
//     removeClient), each exactly once per client.
//   - Client errors, queue depth, writev batches, egress fallbacks:
//     client.go's send/appendError/takeVec/drain.
//   - Frame conservation counters and silence fill: internal/core and
//     internal/ring, mutated and snapshotted under the engine lock.
//
// The laws these counters obey are stated once, by Snapshot.Check and
// DeviceStats.Check. A count that another count already makes is
// computed in Snapshot, not kept: requests, active clients, engine runs,
// play and record bytes, parks outstanding and subscriptions.
//
// A metric is a field of one of these sets, its zero value ready to use;
// it has no name, and its one export is its line in Snapshot (or
// RouterSnapshot), which TestMetricsReachStats checks field by field.
// Everything the hot paths touch is an atomic reached directly — no maps,
// no allocation (the CI gate on BenchmarkDispatch* and
// TestMetricsHotPathAllocs enforce this).

// serverMetrics is the server-wide metric set, held by value in Server.
type serverMetrics struct {
	connects     metrics.Counter
	disconnects  metrics.Counter
	clientErrors metrics.Counter

	// Disconnect classification (overload.go): every disconnect
	// increments exactly one of these, before disconnects itself; each
	// but clientCloses follows its client's close event in the log.
	evictions    metrics.Counter
	sheds        metrics.Counter
	drains       metrics.Counter
	clientCloses metrics.Counter

	// queuedBytes is marshaled output queued across all clients;
	// frameBytes is the ingress bytes the pool has lent (hold, getFrame).
	queuedBytes metrics.Gauge
	frameBytes  metrics.Gauge

	dispatchPlay    metrics.Histogram // ns, one observation per request
	dispatchRecord  metrics.Histogram
	dispatchGetTime metrics.Histogram
	dispatchControl metrics.Histogram

	// dispatchBatch observes the size of every dispatch batch: a hot group
	// observes its length once (a lone hot request is a group of one, and
	// an unservable one counts in the group it arrived in), a control op
	// observes 1.
	dispatchBatch metrics.Histogram

	// Staged reply egress (client.go stagedReply/stagedError): the small
	// replies and errors of a hot group coalesce into one pooled message.
	// bytes is wire bytes that left via the stage; flushes is stage→queue
	// handoffs (each one message, one writev iovec).
	stagedBytes   metrics.Counter
	stagedFlushes metrics.Counter

	writevBatch    metrics.Histogram // messages per vectored write
	sendQueueDepth metrics.Histogram // outbound queue depth at enqueue
	// egressFallbacks counts reader drains handed to the writer: busy write
	// lock, would-block, partial write, or no RawConn (client.drain).
	egressFallbacks metrics.Counter

	// Update plane (scheduler.go): how far past its armed deadline each
	// engine timer pass ran, one observation per pass.
	schedTickLag metrics.Histogram
}

// closeCounterFor maps a recorded close reason to its disconnect-
// classification counter.
func (sm *serverMetrics) closeCounterFor(reason uint32) *metrics.Counter {
	switch reason {
	case closeReasonEvict:
		return &sm.evictions
	case closeReasonShed:
		return &sm.sheds
	case closeReasonDrain:
		return &sm.drains
	default:
		return &sm.clientCloses
	}
}

// engineMetrics is the per-root-device metric set, held by value in its
// engine.
// Atomic so engine goroutines, reader goroutines, and the seal points in
// client.go can all update without extending the engine lock's hold.
type engineMetrics struct {
	lockWait metrics.Histogram // ns waiting to acquire e.mu (hot dispatch + timer pass); see lockTimed
	lockHold metrics.Histogram // ns holding e.mu, up to the holder's last clock reading

	playChunk metrics.Histogram // payload bytes per PlaySamples request accepted off the wire
	recChunk  metrics.Histogram // payload bytes per record reply sealed

	// dispatchBatch is hot requests served per engine-lock acquisition on
	// this engine: every hot group observes its size. Mean ≈ 1 means
	// clients wait for each reply before sending the next request; higher
	// means pipelined small ops are being amortized.
	dispatchBatch metrics.Histogram

	parksStarted   metrics.Counter
	parksCompleted metrics.Counter
	parksDiscarded metrics.Counter
	parkNs         metrics.Histogram // park registration to release

	// Broadcast fan-out (broadcast.go): one encode per chunk per live
	// wire format, so exactly chunks × formats while the format set is
	// stable.
	bcastChunks  metrics.Counter // mix time-slices cut by the pump
	bcastEncodes metrics.Counter // chunk encodes (chunks × wire formats)
	bcastMsgs    metrics.Counter // per-subscriber enqueues that succeeded
	bcastBytes   metrics.Counter // wire bytes fanned out (msgs × message size)
	bcastDrops   metrics.Counter // enqueues refused (dead or hard-capped client)
}

// Snapshot is the consistent, JSON-renderable state of the server's
// metrics: what `afd -stats` serves and `astat` renders. Atomics are
// read individually (never torn), in the order Server.Snapshot states,
// and each device's frame and park counters together under its engine's
// lock; Check states the laws they obey.
type Snapshot struct {
	Requests      uint64 `json:"requests"`
	Connects      uint64 `json:"connects"`
	Disconnects   uint64 `json:"disconnects"`
	ActiveClients int64  `json:"active_clients"`
	ClientErrors  uint64 `json:"client_errors"`

	// Disconnect classification: the reason each disconnect was counted
	// under.
	Evictions    uint64 `json:"evictions"`
	Sheds        uint64 `json:"sheds"`
	Drains       uint64 `json:"drains"`
	ClientCloses uint64 `json:"client_closes"`

	QueuedBytes        int64 `json:"queued_bytes"`
	FrameBytesInFlight int64 `json:"frame_bytes_in_flight"`

	DispatchPlayNs    metrics.HistogramSnapshot `json:"dispatch_play_ns"`
	DispatchRecordNs  metrics.HistogramSnapshot `json:"dispatch_record_ns"`
	DispatchGetTimeNs metrics.HistogramSnapshot `json:"dispatch_gettime_ns"`
	DispatchControlNs metrics.HistogramSnapshot `json:"dispatch_control_ns"`

	// DispatchBatch: requests per dispatch batch, server-wide.
	DispatchBatch metrics.HistogramSnapshot `json:"dispatch_batch"`

	// StagedBytes / StagedFlushes: wire bytes and messages that left
	// through the hot path's reply stage. Every hot group stages its small
	// replies (GetTime, play acks, errors) — groups of one included — so
	// these count every such reply, not only coalesced ones; record
	// replies carry sample data and go out as their own messages.
	StagedBytes   uint64 `json:"staged_bytes"`
	StagedFlushes uint64 `json:"staged_flushes"`

	WritevBatch    metrics.HistogramSnapshot `json:"writev_batch"`
	SendQueueDepth metrics.HistogramSnapshot `json:"send_queue_depth"`
	// EgressFallbacks: reply drains a connection's reader could not finish
	// without blocking and handed to its writer; 0 while peers keep reading.
	EgressFallbacks uint64 `json:"egress_fallbacks"`

	// Update plane: how late engine timer fires ran, and how many passes.
	SchedTickLagNs  metrics.HistogramSnapshot `json:"sched_tick_lag_ns"`
	SchedEngineRuns uint64                    `json:"sched_engine_runs"`

	Devices []DeviceStats `json:"devices"`

	// Events is the server's event log: client evictions, sheds and
	// drains, setup refusals, and its lineserver backends' transitions
	// and transport errors.
	Events metrics.LogSnapshot `json:"events"`
}

// DeviceStats is one root device's counters (views account into their
// root); Check states the laws they obey.
type DeviceStats struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	Rate  int    `json:"rate"`
	Now   uint32 `json:"now"` // device time as of the last refresh

	FramesAccepted  uint64 `json:"frames_accepted"`
	FramesBuffered  uint64 `json:"frames_buffered"`
	FramesDiscarded uint64 `json:"frames_discarded"`
	FramesPreempted uint64 `json:"frames_preempted"`
	FramesRecorded  uint64 `json:"frames_recorded"`

	PlaySilenceFilled uint64 `json:"play_silence_filled"`
	RecSilenceFilled  uint64 `json:"rec_silence_filled"`
	Underruns         uint64 `json:"underruns"`

	PlayBytes      uint64                    `json:"play_bytes"`
	RecBytes       uint64                    `json:"rec_bytes"`
	PlayChunkBytes metrics.HistogramSnapshot `json:"play_chunk_bytes"`
	RecChunkBytes  metrics.HistogramSnapshot `json:"rec_chunk_bytes"`

	// DispatchBatch: hot requests served per engine-lock acquisition.
	DispatchBatch metrics.HistogramSnapshot `json:"dispatch_batch"`

	ParksStarted   uint64                    `json:"parks_started"`
	ParksCompleted uint64                    `json:"parks_completed"`
	ParksDiscarded uint64                    `json:"parks_discarded"`
	ParkedNow      int64                     `json:"parked_now"`
	ParkNs         metrics.HistogramSnapshot `json:"park_ns"`

	// Broadcast fan-out.
	BcastSubs    int64  `json:"bcast_subs"`
	BcastChunks  uint64 `json:"bcast_chunks"`
	BcastEncodes uint64 `json:"bcast_encodes"`
	BcastMsgs    uint64 `json:"bcast_msgs"`
	BcastBytes   uint64 `json:"bcast_bytes"`
	BcastDrops   uint64 `json:"bcast_drops"`

	LockWaitNs metrics.HistogramSnapshot `json:"lock_wait_ns"`
	LockHoldNs metrics.HistogramSnapshot `json:"lock_hold_ns"`

	// Simulated-hardware truth (absent for lineserver backends): frames
	// the DAC consumed from host data, backfilled silence frames, and
	// ADC frames captured.
	HWPlayed   uint64 `json:"hw_played"`
	HWSilent   uint64 `json:"hw_silent"`
	HWRecorded uint64 `json:"hw_recorded"`

	// Lineserver is the UDP backend's transport-health snapshot (only
	// for devices whose backend is a LineServer box), with its health
	// machine's law (health.Stats.Check).
	Lineserver *lineserver.BackendStats `json:"lineserver,omitempty"`
}

// Snapshot assembles a consistent metrics snapshot. Engine locks are
// taken one at a time (never nested), so this is safe to call from any
// goroutine, including while the data plane is under load.
//
// The read order gives every law of Snapshot.Check its live form. Each
// counter here is incremented after the ones it is checked against —
// a close reason before its disconnect, a connect before it, a batch
// before its dispatch latencies — and is read before them: disconnects
// first, the four latency histograms before the batch whose sum is the
// request count. A device's frame and park counters and its
// subscriptions move only under its engine lock and are read together
// under it; broadcast chunks are read before encodes. The event log,
// whose events precede the counters they are checked against, is read
// last.
func (s *Server) Snapshot() Snapshot {
	sm := &s.sm
	snap := Snapshot{
		Disconnects:        sm.disconnects.Load(),
		DispatchPlayNs:     sm.dispatchPlay.Snapshot(),
		DispatchRecordNs:   sm.dispatchRecord.Snapshot(),
		DispatchGetTimeNs:  sm.dispatchGetTime.Snapshot(),
		DispatchControlNs:  sm.dispatchControl.Snapshot(),
		DispatchBatch:      sm.dispatchBatch.Snapshot(),
		Connects:           sm.connects.Load(),
		ClientErrors:       sm.clientErrors.Load(),
		Evictions:          sm.evictions.Load(),
		Sheds:              sm.sheds.Load(),
		Drains:             sm.drains.Load(),
		ClientCloses:       sm.clientCloses.Load(),
		QueuedBytes:        sm.queuedBytes.Load(),
		FrameBytesInFlight: sm.frameBytes.Load(),
		StagedBytes:        sm.stagedBytes.Load(),
		StagedFlushes:      sm.stagedFlushes.Load(),
		WritevBatch:        sm.writevBatch.Snapshot(),
		SendQueueDepth:     sm.sendQueueDepth.Snapshot(),
		EgressFallbacks:    sm.egressFallbacks.Load(),
		SchedTickLagNs:     sm.schedTickLag.Snapshot(),
	}
	snap.Requests = snap.DispatchBatch.Sum
	snap.ActiveClients = int64(snap.Connects - snap.Disconnects)
	snap.SchedEngineRuns = snap.SchedTickLagNs.Count
	for _, e := range s.engines {
		d := e.root
		em := &e.m
		ds := DeviceStats{
			Index:          d.Index,
			Name:           d.Cfg.Name,
			Rate:           d.Cfg.Rate,
			PlayChunkBytes: em.playChunk.Snapshot(),
			RecChunkBytes:  em.recChunk.Snapshot(),
			DispatchBatch:  em.dispatchBatch.Snapshot(),
			ParkNs:         em.parkNs.Snapshot(),
			LockWaitNs:     em.lockWait.Snapshot(),
			LockHoldNs:     em.lockHold.Snapshot(),
			BcastChunks:    em.bcastChunks.Load(),
			BcastEncodes:   em.bcastEncodes.Load(),
			BcastMsgs:      em.bcastMsgs.Load(),
			BcastBytes:     em.bcastBytes.Load(),
			BcastDrops:     em.bcastDrops.Load(),
		}
		// Backend health takes no engine state — read outside the lock.
		if lsb, ok := d.Backend().(*lineserver.Backend); ok {
			st := lsb.Stats()
			ds.Lineserver = &st
		}
		e.mu.Lock()
		io := d.Stats()
		ds.Now = uint32(d.Now())
		ds.FramesAccepted = io.FramesAccepted
		ds.FramesBuffered = io.FramesBuffered
		ds.FramesDiscarded = io.FramesDiscarded
		ds.FramesPreempted = io.FramesPreempted
		ds.FramesRecorded = io.FramesRecorded
		ds.PlaySilenceFilled = d.PlaySilenceFilled()
		ds.RecSilenceFilled = d.RecSilenceFilled()
		ds.Underruns = d.Underruns
		ds.ParksStarted = em.parksStarted.Load()
		ds.ParksCompleted = em.parksCompleted.Load()
		ds.ParksDiscarded = em.parksDiscarded.Load()
		ds.ParkedNow = int64(ds.ParksStarted - ds.ParksCompleted - ds.ParksDiscarded)
		ds.BcastSubs = int64(e.bcast.nsubs)
		if hw, ok := d.Backend().(*vdev.Device); ok {
			ds.HWPlayed, ds.HWSilent, ds.HWRecorded = hw.Stats()
		}
		e.mu.Unlock()
		ds.PlayBytes, ds.RecBytes = ds.PlayChunkBytes.Sum, ds.RecChunkBytes.Sum
		snap.Devices = append(snap.Devices, ds)
	}
	snap.Events = s.log.Snapshot()
	return snap
}

// Check states the server's laws: every disconnect is classified under
// exactly one close reason, and each reason the server decides under
// exactly one event; every connect ends in one disconnect; every request
// a dispatch batch retires is timed by exactly one dispatch histogram;
// every lineserver health transition is one event; then each device's
// (DeviceStats.Check). Settled means every client is gone; live, each
// law holds as the one-sided bound Server.Snapshot's read order gives it.
func (s Snapshot) Check(settled bool) error {
	dispatched := s.DispatchPlayNs.Count + s.DispatchRecordNs.Count +
		s.DispatchGetTimeNs.Count + s.DispatchControlNs.Count
	var moves uint64
	for _, d := range s.Devices {
		if d.Lineserver != nil {
			moves += d.Lineserver.Moves()
		}
	}
	ev := s.Events.Totals
	errs := []error{
		metrics.Law("evict events = evictions", ev[metrics.Evict], s.Evictions, settled),
		metrics.Law("shed events = sheds", ev[metrics.Shed], s.Sheds, settled),
		metrics.Law("drain events = drains", ev[metrics.Drain], s.Drains, settled),
		metrics.Law("health events = lineserver transitions", ev[metrics.Health], moves, settled),
		metrics.Law("evictions + sheds + drains + client_closes = disconnects",
			s.Evictions+s.Sheds+s.Drains+s.ClientCloses, s.Disconnects, settled),
		metrics.Law("connects = disconnects", s.Connects, s.Disconnects, settled),
		metrics.Law("requests = dispatch counts", s.Requests, dispatched, settled),
	}
	for _, d := range s.Devices {
		errs = append(errs, d.Check(settled))
	}
	return errors.Join(errs...)
}

// Check states one device's laws: every frame a play delivers is
// buffered or discarded, and a preempted frame was buffered first; every
// broadcast chunk is encoded once per live wire format. The frame law is
// exact in every snapshot (one engine-lock read); once settled nothing
// is parked or subscribed. Then the lineserver backend's law, if any.
func (d DeviceStats) Check(settled bool) error {
	err := errors.Join(
		metrics.Law("frames_accepted = frames_buffered + frames_discarded",
			d.FramesAccepted, d.FramesBuffered+d.FramesDiscarded, true),
		metrics.Law("frames_buffered >= frames_preempted", d.FramesBuffered, d.FramesPreempted, false),
		metrics.Law("parked_now = 0", uint64(d.ParkedNow), 0, settled),
		metrics.Law("bcast_encodes >= bcast_chunks", d.BcastEncodes, d.BcastChunks, false),
		metrics.Law("bcast_subs = 0", uint64(d.BcastSubs), 0, settled),
	)
	if d.Lineserver != nil {
		err = errors.Join(err, d.Lineserver.Check(settled))
	}
	if err != nil {
		return fmt.Errorf("device %d (%s): %w", d.Index, d.Name, err)
	}
	return nil
}

// lockTimed/unlockTimed wrap an engine-lock acquire/release with the
// wait and hold histograms; every timed locker (a hot dispatch group, the
// engine's timer pass) uses them so all call sites measure the same way,
// and each pays two clock reads, both its own: the start reading it
// already holds and one end reading it also uses for its latency. They take
// the mutex directly (no func values) to keep the hot path allocation-free.
//
// lockTimed acquires mu for a caller whose work began at start and returns
// when the hold began, as an offset from start. An uncontended acquisition
// (TryLock succeeds) reads no clock: it observes a lock_wait_ns of 0 and
// the hold begins at start. Only a contended one reads the clock once it
// has the lock; its wait is the time since start, so it includes what the
// caller did between its start reading and asking for the lock.
func (em *engineMetrics) lockTimed(mu *sync.Mutex, start time.Time) (held time.Duration) {
	if !mu.TryLock() {
		mu.Lock()
		held = time.Since(start)
	}
	em.lockWait.Observe(held.Nanoseconds())
	return held
}

// unlockTimed releases mu. end is the caller's last reading, as an offset
// from the same start: lock_hold_ns ends there, not at the unlock itself,
// so lock_wait_ns and lock_hold_ns always count the same acquisitions.
func (em *engineMetrics) unlockTimed(mu *sync.Mutex, held, end time.Duration) {
	em.lockHold.Observe((end - held).Nanoseconds())
	mu.Unlock()
}
