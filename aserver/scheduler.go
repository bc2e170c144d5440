package aserver

import (
	"runtime"
	"time"

	"audiofile/internal/timerwheel"
	"sync"
)

// The update scheduler is the server's one timer: every engine registers
// one passive timer with a sharded timer wheel, and a bounded worker pool
// runs the due engines in batches. The update plane's resident goroutine
// count is O(shards + workers) regardless of device count. The control
// plane's few timed jobs (the overload sweep, the flash-hook re-hook,
// Drain's poll) ride the same wheel and workers through job.
//
// Protocol, per engine:
//
//   - The engine has two timed jobs (§7.3.1), both plain fields guarded
//     by e.mu: the periodic update (e.nextUpdate) and the resumption of
//     blocked records (each park's wake). It needs no queue: parks are
//     bounded by the device's clients and every update walks all of them
//     anyway, so finding the due ones is a scan of the same map.
//   - The wheel timer is armed for min(next update, earliest park wake).
//     Arming happens under e.mu — by the worker after a pass, or by
//     wakeLocked when a new wake beats the armed deadline.
//   - When a shard tick fires engine timers, the shard hands the worker
//     pool the due engines as one sweep (fireBatch); e.queued dedupes so
//     an engine is in the pool's queue at most once. A worker takes each
//     engine's e.mu through the instrumented lockTimed path, runs what is
//     due, re-arms, and releases.
//
// Liveness invariant: an engine's timer is armed for min(next update,
// earliest park wake) or the engine is queued for a worker. Fires that
// race with the queued flag are dropped precisely because a worker pass —
// which always re-arms under the lock — is already pending.
type updateScheduler struct {
	s       *Server
	wheel   *timerwheel.Wheel
	work    chan schedItem
	workers int
	wg      sync.WaitGroup
}

// schedItem is one unit handed to the worker pool: a shard sweep of due
// engines or a control-plane job, with the tick's clock reading.
type schedItem struct {
	batch *[]*engine
	fn    func(now time.Time)
	now   time.Time
}

// engineBatchPool recycles the slices that carry shard sweeps from the
// wheel's fire hook to the workers.
var engineBatchPool = sync.Pool{New: func() any {
	s := make([]*engine, 0, 64)
	return &s
}}

// sweepChunkMax caps how many engines one worker sweeps per item. Small
// ticks still collapse into a single send (the amortization win), but a
// tick that fires a whole fleet is split so the sweep spreads across the
// worker pool instead of serializing on one goroutine — at 512 engines a
// single-worker sweep would hold tick lag above the update period.
const sweepChunkMax = 16

// defaultUpdateWorkers sizes the pool: enough to use the machine during
// a full-fleet tick, never more than one per engine (plus slack for
// generic jobs).
func defaultUpdateWorkers(engines int) int {
	w := runtime.GOMAXPROCS(0)
	if w > 16 {
		w = 16
	}
	if w > engines {
		w = engines
	}
	if w < 1 {
		w = 1
	}
	return w
}

func newUpdateScheduler(s *Server, engines, shards, workers int) *updateScheduler {
	if workers <= 0 {
		workers = defaultUpdateWorkers(engines)
	}
	u := &updateScheduler{
		s:       s,
		workers: workers,
		// Sized so every engine can be queued at once (queued dedupes at
		// one entry per engine) plus headroom for generic jobs: a shard
		// goroutine never blocks on a full channel in practice, and the
		// fire path falls back to running inline if it ever would.
		work: make(chan schedItem, engines+64),
	}
	u.wheel = timerwheel.New(timerwheel.Config{
		Shards: shards, // 0 = wheel default (GOMAXPROCS/4, clamped to [1, 8])
		OnBatch: func(n int) {
			s.sm.schedBatch.Observe(int64(n))
		},
		FireBatch: u.fireBatch,
	})
	for i := 0; i < workers; i++ {
		u.wg.Add(1)
		go u.worker()
	}
	return u
}

// register wires an engine to the wheel and arms its first deadline. The
// payload is how fireBatch recognizes engine timers, which it delivers
// itself: they need no fire callback of their own.
func (u *updateScheduler) register(e *engine) {
	e.timer = u.wheel.NewTimer(e.idx, nil)
	e.timer.Payload = e
	e.mu.Lock()
	e.armed = e.nextUpdate
	e.timer.Arm(e.armed)
	e.mu.Unlock()
}

// fireBatch is the wheel's batch hook: the engine timers one shard tick
// fires go to the worker pool as one sweep — one channel send, however
// many engines (one due engine is a sweep of one). The sweep is sorted
// into ascending engine order — the repo's engine lock order — though
// the worker only ever holds one engine lock at a time. Non-engine
// timers (job's) fire their own callback.
func (u *updateScheduler) fireBatch(now time.Time, due []*timerwheel.Timer) {
	sm := u.s.sm
	var bp *[]*engine
	for _, t := range due {
		e, ok := t.Payload.(*engine)
		if !ok {
			t.Fire(now)
			continue
		}
		if overdue := t.Lateness(now); overdue > 0 {
			sm.schedTickLag.Observe(overdue.Nanoseconds())
		} else {
			sm.schedTickLag.Observe(0)
		}
		if !e.queued.CompareAndSwap(false, true) {
			// Already awaiting a worker, which will re-arm under the lock.
			continue
		}
		if bp == nil {
			bp = engineBatchPool.Get().(*[]*engine)
		}
		*bp = append(*bp, e)
	}
	if bp == nil {
		return
	}
	batch := *bp
	// Insertion sort: sweeps are small and usually already ordered, and
	// sort.Slice would allocate its closure on the per-tick path.
	for i := 1; i < len(batch); i++ {
		for j := i; j > 0 && batch[j].idx < batch[j-1].idx; j-- {
			batch[j], batch[j-1] = batch[j-1], batch[j]
		}
	}
	sm.schedOverdue.Add(int64(len(batch)))
	for start := 0; start < len(batch); start += sweepChunkMax {
		end := start + sweepChunkMax
		if end > len(batch) {
			end = len(batch)
		}
		var cp *[]*engine
		if start == 0 && end == len(batch) {
			cp = bp // one chunk: hand over the collected slice itself
		} else {
			cp = engineBatchPool.Get().(*[]*engine)
			*cp = append(*cp, batch[start:end]...)
		}
		sm.schedSweepBatch.Observe(int64(end - start))
		select {
		case u.work <- schedItem{batch: cp, now: now}:
		default:
			// The channel is sized for the whole fleet, so this is
			// unreachable in steady state; if it ever trips, sweep on the
			// shard goroutine rather than block the wheel.
			for _, e := range *cp {
				sm.schedOverdue.Add(-1)
				e.queued.Store(false)
				u.serviceEngine(e, now)
			}
			*cp = (*cp)[:0]
			engineBatchPool.Put(cp)
		}
	}
	if len(batch) > sweepChunkMax {
		// Multi-chunk tick: the chunks were copied out, so the collected
		// slice goes straight back to the pool.
		*bp = (*bp)[:0]
		engineBatchPool.Put(bp)
	}
}

func (u *updateScheduler) worker() {
	defer u.wg.Done()
	for {
		select {
		case it := <-u.work:
			if it.fn != nil {
				it.fn(it.now)
				continue
			}
			u.runBatch(it.batch, it.now)
		case <-u.s.done:
			return
		}
	}
}

// runBatch is one worker pass over a shard sweep: each engine is serviced
// in ascending lock order (one lock held at a time), with the busy
// accounting done once for the sweep. The queued flag is cleared before
// the engine's pass so a fire arriving mid-pass re-queues the engine
// instead of being lost.
func (u *updateScheduler) runBatch(bp *[]*engine, now time.Time) {
	sm := u.s.sm
	sm.schedWorkersBusy.Add(1)
	t0 := time.Now()
	for i, e := range *bp {
		sm.schedOverdue.Add(-1)
		e.queued.Store(false)
		u.serviceEngine(e, now)
		sm.schedEngineRuns.Inc()
		(*bp)[i] = nil
	}
	sm.schedBusyNs.Add(uint64(time.Since(t0).Nanoseconds()))
	sm.schedWorkersBusy.Add(-1)
	*bp = (*bp)[:0]
	engineBatchPool.Put(bp)
}

// serviceEngine is one worker pass, driven by the wheel tick read at now:
// the periodic update if it is due — it retries every park — else only the
// parks whose wake has come. The next update is computed from the tick's
// own now: one clock read per tick, and a tick that fires late does not
// silently stretch the period. It re-arms the wheel timer under the same
// hold of the engine lock: any wakeLocked that lands after the unlock sees
// the deadline armed here and promotes it if it holds an earlier one.
func (u *updateScheduler) serviceEngine(e *engine, now time.Time) {
	acq := e.m.lockTimed(&e.mu)
	if !now.Before(e.nextUpdate) {
		e.updateLocked()
		e.nextUpdate = now.Add(e.interval)
	} else {
		for c, p := range e.parks {
			if !p.wake.IsZero() && !now.Before(p.wake) {
				e.retryParked(c, p)
			}
		}
	}
	e.armed = e.nextUpdate
	for _, p := range e.parks {
		if !p.wake.IsZero() && p.wake.Before(e.armed) {
			e.armed = p.wake
		}
	}
	e.timer.Arm(e.armed)
	e.m.unlockTimed(&e.mu, acq)
}

// job returns an unarmed wheel timer that hands fn to the worker pool
// each time it fires; fn re-arms the timer to run again. This is how the
// control plane's timed work runs without a timer of its own.
func (u *updateScheduler) job(fn func(now time.Time)) *timerwheel.Timer {
	return u.wheel.NewTimer(0, func(now time.Time, _ time.Duration) {
		select {
		case u.work <- schedItem{fn: fn, now: now}:
		default:
			fn(now)
		}
	})
}

// pollUntil runs cond on the worker pool every interval until it returns
// true or deadline passes (or the server shuts down). This is how Drain
// watches the data plane empty: the poll rides the same wheel/worker
// machinery as the updates it is waiting on.
func (u *updateScheduler) pollUntil(interval time.Duration, deadline time.Time, cond func() bool) {
	done := make(chan struct{})
	var t *timerwheel.Timer
	t = u.job(func(now time.Time) {
		if cond() || now.After(deadline) {
			close(done)
			return
		}
		t.Arm(now.Add(interval))
	})
	t.Arm(time.Now().Add(interval))
	select {
	case <-done:
	case <-u.s.done:
	}
	t.Stop()
}

// stop halts the wheel and joins the workers (they exit on s.done), then
// discards any park still registered: engines own no goroutine to do
// shutdown cleanup, so the scheduler owns it.
func (u *updateScheduler) stop() {
	u.wheel.Stop()
	u.wg.Wait()
	for _, e := range u.s.engines {
		e.mu.Lock()
		for c, p := range e.parks {
			e.finishPark(c, p, false)
		}
		e.mu.Unlock()
	}
}
