package aserver

import (
	"sync"
	"time"

	"audiofile/internal/atime"
	"audiofile/internal/core"
	"audiofile/internal/phonesim"
	"audiofile/internal/proto"
	"audiofile/internal/sampleconv"
)

// engine is the data plane for one root device: it owns the device's
// buffering state, its periodic update task, the parked (blocked)
// requests touching it, its phone line pump, and the pass-through
// patches it is responsible for pumping.
//
// Where the paper's DIA serializes every device behind one thread, each
// engine serializes only its own root device behind e.mu. A connection's
// reader runs hot requests (PlaySamples, RecordSamples, GetTime) under
// this lock alone, and takes it inside Server.ctl for the rare control
// operations that touch device state. The engine's two timed jobs (§7.3.1)
// — the periodic update and the resumption of blocked requests — share
// one runtime timer (time.AfterFunc), whose fire runs the due pass on a
// goroutine that lives only as long as the pass (see scheduler.go). An
// engine owns no goroutine and no queue.
//
// Lock ordering: Server.ctl is taken before any engine lock, never under
// one. An engine may lock a peer engine only in ascending engine order
// (pass-through pumping runs on the lower-indexed engine and reaches
// across to the higher); the control plane follows the same ascending
// rule when it needs two engines. Server.clientMu is the innermost lock
// (event fan-out).
type engine struct {
	s    *Server
	idx  int // position in Server.engines, ascending root device index
	root *core.Device
	line *phonesim.Line
	m    engineMetrics // this root device's metrics, exported as its DeviceStats

	interval time.Duration // periodic update cadence

	mu         sync.Mutex
	nextUpdate time.Time           // when the periodic update is next due
	parks      map[*client]*parked // blocked requests on this device, by client
	patches    map[int]*patch      // pass-through patches pumped here, by src device index
	bcast      bchannel            // broadcast channel state (broadcast.go)

	// timer is this engine's one runtime timer; its callback is fire.
	// Under mu it is armed for min(nextUpdate, earliest park wake); armed
	// is that deadline. stopped is set by Close, which also stops the
	// timer: from then on no pass runs and nothing parks.
	timer   *time.Timer
	armed   time.Time
	stopped bool
}

// parked is the resumable state of one play or record call. Attempt 0
// builds it on the dispatching reader's stack and serves it inline; when
// the call blocks — a play whose tail lies beyond the buffer horizon, a
// blocking record whose data has not been captured yet — the engine keeps
// a copy and serves it again through the same function as time advances.
// The originating reader goroutine waits on done before dispatching the
// connection's next request, which preserves per-connection FIFO order
// across the block, and is free to read ahead into its ingress buffer
// meanwhile: a park owns every byte it still needs.
type parked struct {
	c     *client
	a     *ac
	op    uint8
	seq   uint16
	frame *proto.Buffer // a play's pooled data, counted in frame_bytes_in_flight; returned when the call finishes
	done  chan struct{} // closed exactly once, when the park completes or is discarded
	since time.Time     // registration time, for the park-duration histogram
	// wake is when a blocked record's last sample should exist; zero for
	// plays, which resume on the periodic update.
	wake time.Time

	// play is the decoded request, advanced past what has been buffered:
	// Data is what remains, in playEnc and native byte order (compressed
	// contexts hold decompressed data, in frame), Time is where it starts.
	play    proto.PlaySamplesReq
	playEnc sampleconv.Encoding
	rec     proto.RecordSamplesReq // the decoded request
}

func newEngine(s *Server, idx int, root *core.Device, line *phonesim.Line) *engine {
	hwDur := time.Duration(root.Backend().HWFrames()) * time.Second / time.Duration(root.Cfg.Rate)
	// The periodic update (§7.2) runs every interval, or half the
	// hardware buffer duration if that is shorter.
	interval := core.MSUpdate * time.Millisecond
	if hwDur/2 < interval {
		interval = hwDur / 2
	}
	return &engine{
		s:        s,
		idx:      idx,
		root:     root,
		line:     line,
		interval: interval,
		parks:    make(map[*client]*parked),
		patches:  make(map[int]*patch),
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
	for c, p := range e.parks {
		e.retryParked(c, p)
	}
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

// parkLocked keeps a call that blocked on attempt 0 and starts its
// lifecycle accounting: every park registered here is later released by
// finishPark exactly once (the parks law, DeviceStats.Check). On a
// stopped engine nothing would
// ever retry it, so it is discarded as it lands, as Close's own sweep
// would have. A play's remaining data aliases the reader's ingress buffer,
// so the park takes a pooled copy (a compressed play holds its
// decompression in frame already; a record pins nothing). Caller holds
// e.mu.
func (e *engine) parkLocked(call *parked) *parked {
	p := new(parked)
	*p = *call
	if p.op == proto.OpPlaySamples && p.frame == nil {
		p.frame = e.s.getFrame(len(p.play.Data))
		copy(p.frame.B, p.play.Data)
		p.play.Data = p.frame.B
	}
	p.done = make(chan struct{})
	p.since = time.Now()
	e.parks[p.c] = p
	e.m.parksStarted.Inc()
	if e.stopped {
		e.finishPark(p.c, p, false)
	}
	return p
}

// finishPark removes a park and releases everything it pinned: a play's
// pooled data and the reader goroutine waiting on done. completed
// distinguishes a request that ran to completion from one discarded (dead
// client, shutdown). Caller holds e.mu.
func (e *engine) finishPark(c *client, p *parked, completed bool) {
	delete(e.parks, c)
	if completed {
		e.m.parksCompleted.Inc()
	} else {
		e.m.parksDiscarded.Inc()
	}
	e.m.parkNs.Observe(time.Since(p.since).Nanoseconds())
	if p.frame != nil {
		e.s.putFrame(p.frame)
		p.frame = nil
	}
	close(p.done)
}

// retryParked serves a blocked request again, through the function that
// served it first, now that time has advanced. Caller holds e.mu.
func (e *engine) retryParked(c *client, p *parked) {
	if c.dead.Load() {
		e.finishPark(c, p, false)
		return
	}
	var done bool
	if p.op == proto.OpPlaySamples {
		done = servePlay(p, false)
	} else {
		done = e.serveRecord(p)
	}
	if done {
		e.finishPark(c, p, true)
	}
}

// wakeLocked sets the blocked record p to be retried at the moment its
// last deficit frames will exist, rather than leaving it to the next
// periodic update — real-time clients (apass) depend on the resume
// latency being small — and promotes the timer if that beats the armed
// deadline. If it does not, the timer is armed for a sooner one or a fire
// is on its way to the lock, and its pass re-arms. An attempt that lands
// early (the clock runs slightly slow relative to the wall-clock estimate)
// comes back through here. Caller holds e.mu.
func (e *engine) wakeLocked(p *parked, deficit int) {
	d := time.Duration(deficit)*time.Second/time.Duration(p.a.dev.Cfg.Rate) + time.Millisecond
	p.wake = time.Now().Add(d)
	if p.wake.Before(e.armed) && !e.stopped {
		e.armed = p.wake
		e.timer.Reset(d)
	}
}

// dropClientParks discards any park the client holds on this engine,
// releasing its pinned buffers and its reader (if still waiting). Called
// by removeClient, under ctl.
func (e *engine) dropClientParks(c *client) {
	e.mu.Lock()
	if p, ok := e.parks[c]; ok {
		e.finishPark(c, p, false)
	}
	e.mu.Unlock()
}
