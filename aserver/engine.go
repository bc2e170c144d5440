package aserver

import (
	"sync"
	"sync/atomic"
	"time"

	"audiofile/internal/atime"
	"audiofile/internal/core"
	"audiofile/internal/phonesim"
	"audiofile/internal/proto"
	"audiofile/internal/sampleconv"
	"audiofile/internal/timerwheel"
)

// engine is the data plane for one root device: it owns the device's
// buffering state, its periodic update task, the parked (blocked)
// requests touching it, its phone line pump, and the pass-through
// patches it is responsible for pumping.
//
// Where the paper's DIA serializes every device behind one thread, each
// engine serializes only its own root device behind e.mu. Hot requests
// (PlaySamples, RecordSamples, GetTime) are dispatched inline by the
// connection's reader goroutine under this lock; the control plane (the
// Server.loop goroutine) takes the same lock for the rare control
// operations that touch device state. The engine's task timer — periodic
// updates and precise parked-request wake-ups — is a passive timer on
// the server's sharded timer wheel; the update scheduler's worker pool
// runs due task passes (see scheduler.go). An engine owns no goroutine.
//
// Lock ordering: an engine may lock a peer engine only in ascending
// engine order (pass-through pumping runs on the lower-indexed engine
// and reaches across to the higher); the control plane follows the same
// ascending rule when it needs two engines. A wheel shard lock may be
// taken under e.mu (timer.Arm), never the reverse: wheel fire callbacks
// run with no shard lock held. Server.clientMu is the innermost lock
// (event fan-out).
type engine struct {
	s    *Server
	idx  int // position in Server.engines, ascending root device index
	root *core.Device
	line *phonesim.Line
	m    *engineMetrics // this engine's slice of the server registry

	interval time.Duration // periodic update cadence

	mu      sync.Mutex
	tasks   *taskQueue          // guarded by mu; run by the scheduler's workers
	parks   map[*client]*parked // blocked requests on this device, by client
	patches map[int]*patch      // pass-through patches pumped here, by src device index
	bcast   bchannel            // broadcast channel state (broadcast.go)

	// timer is this engine's registration with the sharded timer wheel,
	// armed for the task queue's earliest deadline (under mu). queued
	// dedupes wheel fires: true while the engine sits in the scheduler's
	// work queue awaiting a worker pass.
	timer  *timerwheel.Timer
	queued atomic.Bool
}

// parked captures a blocked request being resumed by the engine's task
// mechanism: a play whose tail lies beyond the buffer horizon, or a
// blocking record whose data has not been captured yet. The originating
// reader goroutine waits on done before dispatching the connection's
// next request, which preserves per-connection FIFO order across the
// block. The pooled request frame stays pinned until the park finishes.
type parked struct {
	c     *client
	a     *ac
	op    uint8
	ext   uint8
	seq   uint16
	body  []byte        // aliases frame when pooled (records re-decode per retry)
	frame *[]byte       // pooled request frame; returned when the park finishes
	done  chan struct{} // closed exactly once, when the park completes or is discarded
	since time.Time     // registration time, for the park-duration histogram

	// play state: remaining data in playEnc (compressed contexts park
	// already-decompressed data)
	playData []byte
	playTime uint32
	playEnc  sampleconv.Encoding
	// playPooled is set when playData aliases a pool-owned staging buffer
	// (the ADPCM decompression output); it returns to the pool when the
	// parked play finally completes.
	playPooled *[]byte
	// record state is re-derived from body on each retry
}

func newEngine(s *Server, idx int, root *core.Device, line *phonesim.Line) *engine {
	hwDur := time.Duration(root.Backend().HWFrames()) * time.Second / time.Duration(root.Cfg.Rate)
	interval := core.MSUpdate * time.Millisecond
	if hwDur/2 < interval {
		interval = hwDur / 2
	}
	e := &engine{
		s:        s,
		idx:      idx,
		root:     root,
		line:     line,
		m:        s.sm.newEngineMetrics(root.Index),
		interval: interval,
		tasks:    newTaskQueue(),
		parks:    make(map[*client]*parked),
		patches:  make(map[int]*patch),
	}
	// Seed the periodic update (§7.2): every interval, or half the
	// hardware buffer duration if that is shorter. The re-arm uses the
	// tick's own now — one clock read per tick, passed through.
	var tick func(now time.Time)
	tick = func(now time.Time) {
		e.updateLocked()
		e.tasks.add(now.Add(e.interval), tick)
	}
	e.tasks.add(time.Now().Add(e.interval), tick)
	return e
}

// addTaskLocked schedules fn on the engine's task queue (caller holds
// e.mu) and promotes the engine's wheel timer when the new deadline is
// the queue's earliest — what used to be a poke on the engine
// goroutine's wake channel. If the new task is not the earliest, the
// timer is already armed for a sooner deadline (or the engine is queued
// for a worker pass, which re-arms under the lock).
func (e *engine) addTaskLocked(d time.Duration, fn func(now time.Time)) {
	when := time.Now().Add(d)
	e.tasks.add(when, fn)
	if next, ok := e.tasks.next(); ok && next.Equal(when) {
		e.timer.Arm(when)
	}
}

// updateLocked runs one periodic update for the engine's root device:
// buffer maintenance, telephone events, pass-through patching, and
// resumption of blocked requests. Caller holds e.mu.
func (e *engine) updateLocked() {
	e.root.Update()
	if e.line != nil {
		e.pumpLineEvents()
	}
	for _, p := range e.patches {
		e.pumpPatch(p)
	}
	e.resumeParked()
	e.pumpBroadcast()
}

// pumpLineEvents forwards pending telephone line events to interested
// clients.
func (e *engine) pumpLineEvents() {
	for _, lev := range e.line.DrainEvents() {
		var code uint8
		switch lev.Kind {
		case phonesim.EvRing:
			code = proto.EventPhoneRing
		case phonesim.EvDTMF:
			code = proto.EventPhoneDTMF
		case phonesim.EvLoop:
			code = proto.EventPhoneLoop
		case phonesim.EvHook:
			code = proto.EventPhoneHookSwitch
		}
		e.s.deliverEvent(e.root.Index, e.root.Now(), code, lev.Detail, 0)
	}
}

// peer returns the engine owning the patch endpoint that is not ours.
func (e *engine) peer(p *patch) *engine {
	other := p.a
	if other == e.root {
		other = p.b
	}
	return e.s.engineByDev[other.Index]
}

// pumpPatch moves newly recorded audio across a pass-through patch in
// both directions. The patch is registered on the lower-indexed engine
// (us); the peer's device state is reached under its lock, acquired in
// ascending engine order.
func (e *engine) pumpPatch(p *patch) {
	peer := e.peer(p)
	peer.mu.Lock()
	pumpPatchDir(p.a, p.b, p.buf, &p.aTaken, &p.bOut)
	pumpPatchDir(p.b, p.a, p.buf, &p.bTaken, &p.aOut)
	peer.mu.Unlock()
}

func pumpPatchDir(src, dst *core.Device, buf []byte, taken *atime.ATime, out *atime.ATime) {
	now := src.Now()
	n := int(atime.Sub(now, *taken))
	if n <= 0 {
		return
	}
	max := len(buf) / src.FrameBytes()
	for n > 0 {
		c := n
		if c > max {
			c = max
		}
		chunk := buf[:c*src.FrameBytes()]
		src.Record(*taken, chunk, src.Cfg.Enc, 0)
		// Keep the output cursor inside dst's near future; resynchronize
		// after stalls or clock drift.
		lead := dst.Backend().HWFrames()
		dnow := dst.Now()
		if atime.Before(*out, dnow) || atime.After(*out, atime.Add(dnow, 2*lead)) {
			*out = atime.Add(dnow, lead/2)
		}
		dst.Play(*out, chunk, src.Cfg.Enc, 0, false)
		*out = atime.Add(*out, c)
		*taken = atime.Add(*taken, c)
		n -= c
	}
}

// resumeParked retries every blocked request on this engine. Caller
// holds e.mu.
func (e *engine) resumeParked() {
	for c, p := range e.parks {
		e.retryParked(c, p)
	}
}

// registerParkLocked records a blocked request on this engine and starts
// its lifecycle accounting: every park registered here is later released
// by finishPark exactly once, so parks started == completed + discarded
// whenever no parks are outstanding. Caller holds e.mu.
func (e *engine) registerParkLocked(c *client, p *parked) {
	p.since = time.Now()
	e.parks[c] = p
	e.m.parksStarted.Inc()
	e.m.parkedNow.Add(1)
}

// finishPark removes a park and releases everything it pinned: the
// pooled request frame, any pooled staging buffer, and the reader
// goroutine waiting on done. completed distinguishes a request that ran
// to completion from one discarded (dead client, shutdown). Caller holds
// e.mu.
func (e *engine) finishPark(c *client, p *parked, completed bool) {
	delete(e.parks, c)
	if completed {
		e.m.parksCompleted.Inc()
	} else {
		e.m.parksDiscarded.Inc()
	}
	e.m.parkedNow.Add(-1)
	e.m.parkNs.Observe(time.Since(p.since).Nanoseconds())
	if p.playPooled != nil {
		putBytes(p.playPooled)
		p.playPooled = nil
	}
	if p.frame != nil {
		e.s.putFrame(p.frame)
		p.frame = nil
	}
	close(p.done)
}

// retryParked re-attempts a blocked request after time has advanced.
// Caller holds e.mu.
func (e *engine) retryParked(c *client, p *parked) {
	if c.dead.Load() {
		e.finishPark(c, p, false)
		return
	}
	a := p.a
	switch p.op {
	case proto.OpPlaySamples:
		res := a.dev.Play(atime.ATime(p.playTime), p.playData, p.playEnc, a.playGain, a.preempt)
		if res.Blocked {
			cfb := p.playEnc.BytesPerSamples(1) * a.channels
			p.playData = p.playData[res.Consumed*cfb:]
			p.playTime = uint32(atime.Add(atime.ATime(p.playTime), res.Consumed))
			return
		}
		if p.ext&proto.SampleFlagSuppressReply == 0 {
			c.sendReply(&proto.Reply{Time: uint32(res.Now)}, p.seq)
		}
		e.finishPark(c, p, true)
	case proto.OpRecordSamples:
		r := proto.NewReader(c.order, p.body)
		q := proto.DecodeRecordSamples(r, p.ext)
		if a.enc == sampleconv.ADPCM4 {
			linp := getBytes(4 * int(q.NBytes))
			res := a.dev.Record(atime.ATime(q.Time), *linp, sampleconv.LIN16, a.recGain)
			if res.Avail < 2*int(q.NBytes) {
				putBytes(linp)
				e.wakeParkLocked(p, 2*int(q.NBytes)-res.Avail)
				return
			}
			frames := res.Avail &^ 1
			samplesp := getLin(frames)
			sampleconv.ToLin16(*samplesp, *linp, sampleconv.LIN16, frames)
			putBytes(linp)
			m, payload := newRecordReplyMsg(frames / 2)
			a.recCoder.Encode(payload, *samplesp)
			putLin(samplesp)
			finishRecordReply(c, a, m, frames/2, uint32(res.Now), 0, p.seq)
			e.finishPark(c, p, true)
			return
		}
		cfb := a.clientFrameBytes()
		want := int(q.NBytes) / cfb
		m, payload := newRecordReplyMsg(want * cfb)
		res := a.dev.Record(atime.ATime(q.Time), payload, a.enc, a.recGain)
		if res.Avail < want {
			m.release()
			e.wakeParkLocked(p, want-res.Avail)
			return
		}
		finishRecordReply(c, a, m, want*cfb, uint32(res.Now), q.Flags, p.seq)
		e.finishPark(c, p, true)
	default:
		e.finishPark(c, p, false)
	}
}

// wakeParkLocked schedules a retry of the blocked record p for the moment
// its last deficit frames will exist, rather than leaving it to the next
// periodic update — real-time clients (apass) depend on the resume
// latency being small. A retry that lands early (the clock runs slightly
// slow relative to the wall-clock estimate) comes back through here.
// Caller holds e.mu.
func (e *engine) wakeParkLocked(p *parked, deficit int) {
	wake := time.Duration(deficit)*time.Second/time.Duration(p.a.dev.Cfg.Rate) + time.Millisecond
	e.addTaskLocked(wake, func(time.Time) {
		if e.parks[p.c] == p {
			e.retryParked(p.c, p)
		}
	})
}

// dropClientParks discards any park the client holds on this engine,
// releasing its pinned buffers and its reader (if still waiting). Called
// by the control plane when a client unregisters.
func (e *engine) dropClientParks(c *client) {
	e.mu.Lock()
	if p, ok := e.parks[c]; ok {
		e.finishPark(c, p, false)
	}
	e.mu.Unlock()
}
