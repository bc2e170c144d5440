package aserver

import (
	"slices"
	"time"

	"audiofile/internal/atime"
	"audiofile/internal/core"
	"audiofile/internal/phonesim"
	"audiofile/internal/proto"
	"audiofile/internal/sampleconv"
)

// hotReq is a hot request decoded and placed: the engine that serves it.
type hotReq struct {
	e     *engine
	gated // GetTime's device; a play's or record's context
	play  proto.PlaySamplesReq
	rec   proto.RecordSamplesReq
}

// hotEngine decodes a hot request into h and names the engine that will
// serve it, or returns the error that answers it (h.e nil); h is the
// caller's, reused across a group, and only the fields of rf's opcode
// mean anything afterwards. A play's data shorter than its length word
// is a length error whatever the first word names; the row's gate checks
// the rest. What it accepts, dispatchHotGroup serves without looking
// again. Safe on the reader goroutine: c.acs is only mutated by control
// requests, which the same goroutine dispatches.
func (s *Server) hotEngine(c *client, rf *runFrame, h *hotReq) (code uint8, bad uint32) {
	h.e = nil
	var r proto.Reader // fields stored in place: a composite literal is built beside r and copied in
	r.Order, r.Buf = c.order, rf.body
	switch rf.op {
	case proto.OpPlaySamples:
		h.play = proto.DecodePlaySamples(&r, rf.ext)
	case proto.OpRecordSamples:
		h.rec = proto.DecodeRecordSamples(&r, rf.ext)
	}
	if r.Err != nil {
		return proto.ErrLength, 0
	}
	if code, bad = s.gate(c, rf, &h.gated); code != 0 {
		return code, bad
	}
	if h.a != nil {
		h.e = s.engineByDev[h.a.dev.Index]
	} else {
		h.e = s.engineByDev[h.first]
	}
	return 0, 0
}

// dispatchHotGroup is the one hot entry point. It serves the hot
// requests — PlaySamples, RecordSamples, GetTime — at the head of run
// inline on the caller's goroutine: everything placed on the first
// engine named goes under ONE acquisition of that engine's lock, with
// two clock readings (the start, and the end that closes both the lock
// hold and the latency) and batched metrics adds, and small replies and
// errors staged into one outgoing message. A lone request is a group of
// one.
//
// It consumes entries in order and stops before a control op or a
// request for another engine (the next group's head), and after a
// request that parks; it reports how many it consumed plus the park, if
// any. The caller must not dispatch anything further for this connection
// until the park's done channel closes. The parked entry is always the
// last consumed one.
//
// Dispatch latency is the group's wall time amortized over its members;
// a parked request's latency is its time to park, not its time to
// completion (the park-duration histogram covers that).
func (s *Server) dispatchHotGroup(c *client, run []runFrame) (int, *parked) {
	t0 := time.Now()
	c.lastActive.Store(t0.UnixNano())
	var e *engine // the engine whose lock the group holds, once one is named
	var held time.Duration
	var park *parked
	var chunk, nChunk uint64 // a stretch of plays of one size: one playChunk observation
	var nPlay, nRec, nTime uint64
	consumed, counted := 0, 0
	// Only this goroutine advances c.seq, so the group counts in a local
	// and publishes where its replies leave the stage: an event another
	// goroutine stamps meanwhile never carries a number older than a reply
	// queued ahead of it.
	seq32 := c.seq.Load()
	var h hotReq
	for i := range run {
		rf := &run[i]
		if !opTable[rf.op].hot {
			break
		}
		code, bad := s.hotEngine(c, rf, &h)
		if h.e != nil && h.e != e {
			if e != nil {
				break
			}
			e = h.e
			held = e.m.lockTimed(&e.mu, t0)
		}
		consumed++
		seq32++
		seq := uint16(seq32)
		switch rf.op {
		case proto.OpGetTime:
			nTime++
		case proto.OpPlaySamples:
			nPlay++
		case proto.OpRecordSamples:
			nRec++
		}
		if h.e == nil {
			c.stagedError(code, bad, rf.op, seq)
			continue
		}
		// A play or record here is attempt 0 of a call whose state lives on
		// this stack; if it blocks, the engine keeps a copy to resume.
		switch rf.op {
		case proto.OpGetTime:
			c.stagedReply(&proto.Reply{Time: uint32(s.devices[h.first].Time())}, seq)
		case proto.OpPlaySamples:
			// Play ingress is counted here, the single entry point every
			// accepted PlaySamples request passes through (resumed attempts
			// re-consume the same bytes and are not re-counted).
			if n := uint64(len(h.play.Data)); n != chunk {
				e.m.playChunk.ObserveN(int64(chunk), nChunk)
				chunk, nChunk = n, 0
			}
			nChunk++
			call := parked{c: c, a: h.a, op: rf.op, seq: seq}
			call.preparePlay(h.play)
			if !servePlay(&call, true) {
				park = e.parkLocked(&call)
			} else if call.frame != nil {
				s.putFrame(call.frame)
			}
		case proto.OpRecordSamples:
			// serveRecord queues its reply directly; anything staged so
			// far must leave first to preserve reply order, and is counted
			// before it can leave.
			s.countBatch(e, consumed-counted)
			counted = consumed
			c.seq.Store(seq32)
			c.flushStage()
			call := parked{c: c, a: h.a, op: rf.op, seq: seq, rec: h.rec}
			if !e.serveRecord(&call) {
				park = e.parkLocked(&call)
			}
		}
		if park != nil {
			break
		}
	}
	// The stage leaves before the lock drops: once e.mu is released a
	// worker may finish the park and send its reply, which must queue
	// after every reply staged ahead of it.
	if consumed > counted {
		s.countBatch(e, consumed-counted)
	}
	c.seq.Store(seq32)
	c.flushStage()
	// The group's second and last clock reading: the lock hold and the
	// dispatch latency both end here.
	end := time.Since(t0)
	if e != nil {
		e.m.playChunk.ObserveN(int64(chunk), nChunk)
		e.m.unlockTimed(&e.mu, held, end)
	}
	// The per-op-class latencies are observed after the batch, whose sum
	// is the request count: the live form of the dispatch law
	// (Snapshot.Check).
	per := end.Nanoseconds() / int64(consumed)
	if nPlay != 0 {
		s.sm.dispatchPlay.ObserveN(per, nPlay)
	}
	if nRec != 0 {
		s.sm.dispatchRecord.ObserveN(per, nRec)
	}
	if nTime != 0 {
		s.sm.dispatchGetTime.ObserveN(per, nTime)
	}
	return consumed, park
}

// countBatch counts n requests as one dispatch batch, server-wide and on
// e when the batch named an engine. A request is counted before its reply
// can leave: a writer already running sends a queued reply at once, and
// the peer may read a Snapshot behind it.
func (s *Server) countBatch(e *engine, n int) {
	if e != nil {
		e.m.dispatchBatch.Observe(int64(n))
	}
	s.sm.dispatchBatch.Observe(int64(n))
}

// target is what the first word of a request body names.
type target uint8

const (
	noTarget   target = iota
	devTarget         // a device index
	lineTarget        // a device with a telephone line
	acTarget          // an audio context of this connection
)

// targetErr is the error that answers a first word naming nothing.
var targetErr = [...]uint8{devTarget: proto.ErrDevice, lineTarget: proto.ErrMatch, acTarget: proto.ErrAC}

// opRow is what the dispatcher knows about one opcode.
type opRow struct {
	// hot rows are the data plane, served under the owning engine's lock
	// (dispatchHotGroup). The rest run their handler under ctl
	// (dispatchControl). Both pass the row's gate first.
	hot    bool
	target target
	fixed  int // bytes of the body's fixed fields, as proto.Append* lays them out
	handle func(*Server, *ctlReq)
}

// opTable is the one statement of every opcode: the DIA's table of
// handlers, indexed by request type. A row without a handler that is not
// hot is not a request.
var opTable = [256]opRow{
	proto.OpSelectEvents:       {target: devTarget, fixed: 8, handle: (*Server).selectEvents},
	proto.OpCreateAC:           {fixed: 20, handle: (*Server).createAC},
	proto.OpChangeACAttributes: {target: acTarget, fixed: 16, handle: (*Server).changeAC},
	proto.OpFreeAC:             {target: acTarget, fixed: 4, handle: (*Server).freeAC},
	proto.OpPlaySamples:        {hot: true, target: acTarget, fixed: 12},
	proto.OpRecordSamples:      {hot: true, target: acTarget, fixed: 12},
	proto.OpGetTime:            {hot: true, target: devTarget, fixed: 4},
	proto.OpQueryPhone:         {target: lineTarget, fixed: 4, handle: (*Server).queryPhone},
	proto.OpEnablePassThrough:  {target: devTarget, fixed: 8, handle: (*Server).enablePassThrough},
	proto.OpDisablePassThrough: {target: devTarget, fixed: 4, handle: (*Server).disablePassThrough},
	proto.OpHookSwitch:         {target: lineTarget, fixed: 4, handle: (*Server).hookSwitch},
	proto.OpFlashHook:          {target: lineTarget, fixed: 8, handle: (*Server).flashHook},
	proto.OpEnableGainControl:  {handle: accepted},
	proto.OpDisableGainControl: {handle: accepted},
	proto.OpDialPhone:          {handle: unimplemented},
	proto.OpSetInputGain:       {target: devTarget, fixed: 8, handle: setGain((*core.Device).SetInputGain)},
	proto.OpSetOutputGain:      {target: devTarget, fixed: 8, handle: setGain((*core.Device).SetOutputGain)},
	proto.OpQueryInputGain:     {target: devTarget, fixed: 4, handle: queryGain((*core.Device).InputGain)},
	proto.OpQueryOutputGain:    {target: devTarget, fixed: 4, handle: queryGain((*core.Device).OutputGain)},
	proto.OpEnableInput:        {target: devTarget, fixed: 8, handle: ioMask((*core.Device).EnableInputs)},
	proto.OpEnableOutput:       {target: devTarget, fixed: 8, handle: ioMask((*core.Device).EnableOutputs)},
	proto.OpDisableInput:       {target: devTarget, fixed: 8, handle: ioMask((*core.Device).DisableInputs)},
	proto.OpDisableOutput:      {target: devTarget, fixed: 8, handle: ioMask((*core.Device).DisableOutputs)},
	proto.OpSetAccessControl:   {handle: (*Server).setAccessControl},
	proto.OpChangeHosts:        {fixed: 4, handle: (*Server).changeHosts},
	proto.OpListHosts:          {handle: (*Server).listHosts},
	proto.OpInternAtom:         {fixed: 4, handle: (*Server).internAtom},
	proto.OpGetAtomName:        {fixed: 4, handle: (*Server).getAtomName},
	proto.OpChangeProperty:     {target: devTarget, fixed: 20, handle: (*Server).changeProperty},
	proto.OpDeleteProperty:     {target: devTarget, fixed: 8, handle: (*Server).deleteProperty},
	proto.OpGetProperty:        {target: devTarget, fixed: 12, handle: (*Server).getProperty},
	proto.OpListProperties:     {target: devTarget, fixed: 4, handle: (*Server).listProperties},
	proto.OpNoOperation:        {handle: func(*Server, *ctlReq) {}}, // no reply either
	proto.OpSyncConnection:     {handle: emptyReply},                // the round trip is the point
	proto.OpQueryExtension:     {fixed: 4, handle: (*Server).queryExtension},
	proto.OpListExtensions:     {handle: emptyReply}, // Data 0: none are implemented
	proto.OpKillClient:         {handle: unimplemented},
	proto.OpSubscribe:          {target: acTarget, fixed: 4, handle: (*Server).subscribe},
	proto.OpUnsubscribe:        {target: acTarget, fixed: 4, handle: (*Server).unsubscribe},
}

// gated is what a request's first word names, as its row's gate resolved
// it: the word (a device index, or the context's id), and the line or
// context it names.
type gated struct {
	first uint32
	line  *phonesim.Line
	a     *ac
}

// ctlReq is the control request a connection is dispatching, as a handler
// gets it. It lives on the client: one passed through the table's function
// pointers would escape to the heap, and only the connection's reader
// dispatches for it, one request at a time, under ctl.
type ctlReq struct {
	c       *client
	op, ext uint8
	seq     uint16
	r       proto.Reader // over the body; the dispatcher consumes nothing
	gated
}

func (q *ctlReq) reply(p *proto.Reply)        { q.c.sendReply(p, q.seq) }
func (q *ctlReq) fail(code uint8, bad uint32) { q.c.sendError(code, bad, q.op, q.seq) }

// tailShort answers ErrLength for a body that ended before the variable
// tail its fixed fields announce, and reports that it did. Only the four
// requests that carry one ask, after decoding and before acting.
func (q *ctlReq) tailShort() bool {
	if q.r.Err == nil {
		return false
	}
	q.fail(proto.ErrLength, 0)
	return true
}

// dispatchControl indexes the request type into the handler table, as
// the DIA dispatcher does, and runs the handler to completion once the
// row's gate has passed the request. It counts the request. Caller holds
// s.ctl.
func (s *Server) dispatchControl(c *client, rf runFrame) {
	t0 := time.Now()
	c.lastActive.Store(t0.UnixNano())
	// Control ops always dispatch as a batch of one, counted before the
	// handler can queue a reply and observed before the latency.
	s.sm.dispatchBatch.Observe(1)
	q := &c.req
	q.op, q.ext, q.seq = rf.op, rf.ext, uint16(c.seq.Add(1))
	q.r.Buf, q.r.Pos, q.r.Err = rf.body, 0, nil
	if code, bad := s.gate(c, &rf, &q.gated); code != 0 {
		q.fail(code, bad)
	} else {
		opTable[rf.op].handle(s, q)
	}
	s.sm.dispatchControl.Observe(time.Since(t0).Nanoseconds())
}

// gate is the one check of what a request's row states, on both planes,
// before anything acts on the request: an opcode that is none
// (ErrRequest), a body shorter than its fixed fields (ErrLength — a
// decoder reads zeros past the end, and zeros name device 0, AC 0 and
// gain 0), and a first word that names nothing (targetErr). It resolves
// the first word into g and returns the error that refuses the request,
// or code 0.
func (s *Server) gate(c *client, rf *runFrame, g *gated) (code uint8, bad uint32) {
	row := &opTable[rf.op]
	*g = gated{}
	switch {
	case row.handle == nil && !row.hot:
		return proto.ErrRequest, uint32(rf.op)
	case len(rf.body) < row.fixed:
		return proto.ErrLength, 0
	case row.target == noTarget:
		return 0, 0
	}
	g.first = c.order.Uint32(rf.body)
	ok := false
	switch row.target {
	case devTarget:
		ok = s.validDevice(g.first)
	case lineTarget:
		g.line = s.PhoneLine(int(g.first))
		ok = g.line != nil
	case acTarget:
		g.a = c.acs[g.first]
		ok = g.a != nil
	}
	if !ok {
		return targetErr[row.target], g.first
	}
	return 0, 0
}

// accepted is a request with no effect and no reply: NoOperation, and the
// gain-control pair, which the simulated hardware has no AGC to obey.
func accepted(*Server, *ctlReq) {}

func emptyReply(_ *Server, q *ctlReq) { q.reply(&proto.Reply{}) }

// unimplemented answers KillClient, and DialPhone, which is obsolete: FCC
// dialing timing cannot be met from the server's tasking system; clients
// dial by playing tone pairs themselves.
func unimplemented(_ *Server, q *ctlReq) { q.fail(proto.ErrImplementation, 0) }

func (s *Server) validDevice(dev uint32) bool { return dev < uint32(len(s.devices)) }

// wireBool is a flag as a reply carries it.
func wireBool(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

func (s *Server) selectEvents(q *ctlReq) {
	m := proto.DecodeSelectEvents(&q.r)
	s.clientMu.Lock()
	q.c.eventMasks[int(m.Device)] = m.Mask
	s.clientMu.Unlock()
}

func (s *Server) createAC(q *ctlReq) {
	m := proto.DecodeCreateAC(&q.r)
	if !s.validDevice(m.Device) {
		q.fail(proto.ErrDevice, m.Device)
		return
	}
	if _, exists := q.c.acs[m.AC]; exists {
		q.fail(proto.ErrValue, m.AC)
		return
	}
	d := s.devices[m.Device]
	a := &ac{
		id:       m.AC,
		dev:      d,
		enc:      d.Cfg.Enc,
		channels: d.Cfg.Channels,
	}
	if a.setAttrs(q, m.Mask, m.Attrs, false) {
		q.c.acs[m.AC] = a
	}
}

func (s *Server) changeAC(q *ctlReq) {
	m := proto.DecodeChangeAC(&q.r)
	e := s.engineByDev[q.a.dev.Index]
	e.mu.Lock()
	subscribed := q.a.subscribed
	e.mu.Unlock()
	q.a.setAttrs(q, m.Mask, m.Attrs, subscribed)
}

// setAttrs validates every masked attribute, then applies them: a change
// that is refused changes nothing. It reports success, having answered q
// on failure.
func (a *ac) setAttrs(q *ctlReq, mask uint32, attrs proto.ACAttributes, subscribed bool) bool {
	enc, setEnc := sampleconv.Encoding(attrs.Type), mask&proto.ACEncoding != 0
	switch {
	case setEnc && !enc.Valid():
		q.fail(proto.ErrValue, uint32(attrs.Type))
		return false
	case setEnc && enc != a.enc && subscribed:
		// The broadcast group pushes chunks in the encoding the context
		// had when it subscribed.
		q.fail(proto.ErrMatch, uint32(attrs.Type))
		return false
	case setEnc && enc == sampleconv.ADPCM4 && a.dev.Cfg.Channels != 1:
		// The compressed conversion module handles mono streams.
		q.fail(proto.ErrMatch, uint32(attrs.Type))
		return false
	case mask&proto.ACChannels != 0 && int(attrs.Channels) != a.dev.Cfg.Channels:
		q.fail(proto.ErrMatch, uint32(attrs.Channels))
		return false
	}
	if setEnc {
		a.enc = enc
		a.playCoder.Reset()
		a.recCoder.Reset()
	}
	if mask&proto.ACChannels != 0 {
		a.channels = int(attrs.Channels)
	}
	if mask&proto.ACPlayGain != 0 {
		a.playGain = int(attrs.PlayGain)
	}
	if mask&proto.ACRecordGain != 0 {
		a.recGain = int(attrs.RecGain)
	}
	if mask&proto.ACPreemption != 0 {
		a.preempt = attrs.Preempt != 0
	}
	return true
}

func (s *Server) freeAC(q *ctlReq) {
	s.releaseAC(q.a)
	delete(q.c.acs, q.a.id)
}

func (s *Server) subscribe(q *ctlReq) {
	a := q.a
	e := s.engineByDev[a.dev.Index]
	e.mu.Lock()
	code := e.subscribeLocked(q.c, a)
	now := a.dev.Now()
	e.mu.Unlock()
	if code != 0 {
		q.fail(code, a.id)
		return
	}
	// Aux identifies the channel the subscription joined: broadcast
	// messages are routed client-side by this device index.
	q.reply(&proto.Reply{Time: uint32(now), Aux: uint32(a.dev.Index)})
}

func (s *Server) unsubscribe(q *ctlReq) {
	e := s.engineByDev[q.a.dev.Index]
	e.mu.Lock()
	e.unsubscribeLocked(q.a)
	now := q.a.dev.Now()
	e.mu.Unlock()
	q.reply(&proto.Reply{Time: uint32(now)})
}

func (s *Server) queryPhone(q *ctlReq) {
	q.reply(&proto.Reply{Data: wireBool(q.line.OffHook()), Aux: uint32(wireBool(q.line.LoopCurrent())),
		Time: uint32(s.deviceTime(q.first))})
}

// enablePassThrough validates a patch request and registers it on the
// lower-indexed engine, which pumps it (reaching the peer under an
// ascending two-lock acquire).
func (s *Server) enablePassThrough(q *ctlReq) {
	m := proto.DecodePassThrough(&q.r)
	if !s.validDevice(m.Other) {
		q.fail(proto.ErrDevice, m.Other)
		return
	}
	a, b := s.devices[m.Device], s.devices[m.Other]
	if a == b || a.Cfg.Rate != b.Cfg.Rate || a.Cfg.Enc != b.Cfg.Enc ||
		a.Cfg.Channels != b.Cfg.Channels || a.IsView() || b.IsView() {
		q.fail(proto.ErrMatch, m.Other)
		return
	}
	lo, hi := s.engineByDev[a.Index], s.engineByDev[b.Index]
	if hi.idx < lo.idx {
		lo, hi = hi, lo
	}
	lo.mu.Lock()
	hi.mu.Lock()
	lo.patches[a.Index] = newPatch(a, b)
	hi.mu.Unlock()
	lo.mu.Unlock()
}

func (s *Server) disablePassThrough(q *ctlReq) {
	dev := int(q.first)
	for _, e := range s.engines {
		e.mu.Lock()
		for idx, p := range e.patches {
			if p.a.Index == dev || p.b.Index == dev {
				delete(e.patches, idx)
			}
		}
		e.mu.Unlock()
	}
}

func (s *Server) hookSwitch(q *ctlReq) {
	q.line.SetHook(q.ext == proto.HookOff)
	s.updateEngine(q.first) // deliver the hook event promptly
}

// Flash durations: the default a client asks for with 0, and the longest
// accepted. The wire carries 32 bits of milliseconds (49 days); a central
// office reads an open loop of more than a second or two as a hang-up, so
// a longer flash is not a flash — the client sends HookSwitch twice.
const (
	defaultFlash = 500 * time.Millisecond
	maxFlash     = 2 * time.Second
)

func (s *Server) flashHook(q *ctlReq) {
	m := proto.DecodeFlashHook(&q.r)
	dur := time.Duration(m.DurationMs) * time.Millisecond
	if !q.line.OffHook() {
		q.fail(proto.ErrMatch, m.Device)
		return
	}
	if dur > maxFlash {
		q.fail(proto.ErrValue, m.DurationMs)
		return
	}
	if dur == 0 {
		dur = defaultFlash
	}
	// The line owns the re-hook (a HookSwitch or Close meanwhile cancels
	// it); the engine is only entered to deliver the events.
	q.line.Flash(dur, func() { s.updateEngine(m.Device) })
	s.updateEngine(m.Device)
}

// Device gain limits, matching the utility library's table range.
const (
	minDeviceGain = -30
	maxDeviceGain = 30
)

// setGain, queryGain and ioMask make the handler of a device setting from
// the core.Device method that reads or writes it, under the engine's lock.
func setGain(set func(*core.Device, int)) func(*Server, *ctlReq) {
	return func(s *Server, q *ctlReq) {
		m := proto.DecodeGainReq(&q.r)
		if m.Gain < minDeviceGain || m.Gain > maxDeviceGain {
			q.fail(proto.ErrValue, uint32(m.Gain))
			return
		}
		e := s.engineByDev[m.Device]
		e.mu.Lock()
		set(s.devices[m.Device], int(m.Gain))
		e.mu.Unlock()
	}
}

func queryGain(get func(*core.Device) int) func(*Server, *ctlReq) {
	return func(s *Server, q *ctlReq) {
		e := s.engineByDev[q.first]
		e.mu.Lock()
		cur := get(s.devices[q.first])
		e.mu.Unlock()
		w := proto.Writer{Order: q.c.order}
		w.I32(minDeviceGain)
		w.I32(maxDeviceGain)
		q.reply(&proto.Reply{Aux: uint32(int32(cur)), Extra: w.Buf})
	}
}

func ioMask(apply func(*core.Device, uint32)) func(*Server, *ctlReq) {
	return func(s *Server, q *ctlReq) {
		m := proto.DecodeDeviceMaskReq(&q.r)
		e := s.engineByDev[m.Device]
		e.mu.Lock()
		apply(s.devices[m.Device], m.Mask)
		e.mu.Unlock()
	}
}

func (s *Server) setAccessControl(q *ctlReq) { s.accessEnabled = q.ext != 0 }

func (s *Server) changeHosts(q *ctlReq) {
	m := proto.DecodeChangeHosts(&q.r, q.ext)
	if q.tailShort() {
		return
	}
	switch {
	case m.Mode == proto.HostDelete:
		s.accessList = slices.DeleteFunc(s.accessList, sameHost(m.Host))
	case m.Mode == proto.HostInsert && !slices.ContainsFunc(s.accessList, sameHost(m.Host)):
		s.accessList = append(s.accessList, m.Host)
	}
}

func (s *Server) listHosts(q *ctlReq) {
	w := proto.Writer{Order: q.c.order}
	proto.EncodeHostList(&w, s.accessList)
	q.reply(&proto.Reply{Data: wireBool(s.accessEnabled), Aux: uint32(len(s.accessList)), Extra: w.Buf})
}

func (s *Server) internAtom(q *ctlReq) {
	m := proto.DecodeInternAtom(&q.r, q.ext)
	if q.tailShort() {
		return
	}
	q.reply(&proto.Reply{Aux: s.atoms.intern(m.Name, m.OnlyIfExists)})
}

func (s *Server) getAtomName(q *ctlReq) {
	id := q.r.U32()
	name := s.atoms.name(id)
	if name == "" {
		q.fail(proto.ErrAtom, id)
		return
	}
	w := proto.Writer{Order: q.c.order}
	w.U16(uint16(len(name)))
	w.Skip(2)
	w.String4(name)
	q.reply(&proto.Reply{Aux: uint32(len(name)), Extra: w.Buf})
}

func (s *Server) changeProperty(q *ctlReq) {
	m := proto.DecodeChangeProperty(&q.r, q.ext)
	if q.tailShort() {
		return
	}
	if !s.atoms.valid(m.Property) || !s.atoms.valid(m.Type) {
		q.fail(proto.ErrAtom, m.Property)
		return
	}
	if m.Format != 8 && m.Format != 16 && m.Format != 32 {
		q.fail(proto.ErrValue, uint32(m.Format))
		return
	}
	props := s.props[m.Device]
	old := props[m.Property]
	data := append([]byte(nil), m.Data...)
	switch {
	case m.Mode > proto.PropModeAppend:
		q.fail(proto.ErrValue, uint32(m.Mode))
		return
	case m.Mode == proto.PropModeReplace || old == nil:
		props[m.Property] = &property{typ: m.Type, format: m.Format, data: data}
	case old.typ != m.Type || old.format != m.Format:
		q.fail(proto.ErrMatch, m.Property)
		return
	case m.Mode == proto.PropModePrepend:
		old.data = append(data, old.data...)
	default:
		old.data = append(old.data, data...)
	}
	s.deliverEvent(int(m.Device), s.deviceNow(m.Device), proto.EventPropertyChange, 0, m.Property)
}

func (s *Server) deleteProperty(q *ctlReq) {
	m := proto.DecodeDeleteProperty(&q.r)
	if !s.atoms.valid(m.Property) {
		q.fail(proto.ErrAtom, m.Property)
		return
	}
	if _, ok := s.props[m.Device][m.Property]; ok {
		delete(s.props[m.Device], m.Property)
		s.deliverEvent(int(m.Device), s.deviceNow(m.Device), proto.EventPropertyChange, 1, m.Property)
	}
}

func (s *Server) getProperty(q *ctlReq) {
	m := proto.DecodeGetProperty(&q.r, q.ext)
	if !s.atoms.valid(m.Property) {
		q.fail(proto.ErrAtom, m.Property)
		return
	}
	// A property that is not set reads as type None; one of another type
	// than asked for reports its own and delivers no data.
	typ, format, data := proto.AtomNone, uint8(0), []byte(nil)
	p := s.props[m.Device][m.Property]
	whole := p != nil && (m.Type == proto.AtomNone || m.Type == p.typ)
	if p != nil {
		typ, format = p.typ, p.format
	}
	if whole {
		data = p.data
	}
	w := proto.Writer{Order: q.c.order}
	w.U32(typ)
	w.U32(uint32(len(data)))
	w.Bytes(data)
	q.reply(&proto.Reply{Data: format, Aux: uint32(len(data)), Extra: w.Buf})
	if whole && m.Delete {
		delete(s.props[m.Device], m.Property)
		s.deliverEvent(int(m.Device), s.deviceNow(m.Device), proto.EventPropertyChange, 1, m.Property)
	}
}

// listProperties lists in ascending atom order, not the map's: the reply's
// bytes are a function of the server's state.
func (s *Server) listProperties(q *ctlReq) {
	atoms := make([]uint32, 0, len(s.props[q.first]))
	for atom := range s.props[q.first] {
		atoms = append(atoms, atom)
	}
	slices.Sort(atoms)
	w := proto.Writer{Order: q.c.order}
	for _, atom := range atoms {
		w.U32(atom)
	}
	q.reply(&proto.Reply{Aux: uint32(len(atoms)), Extra: w.Buf})
}

func (s *Server) queryExtension(q *ctlReq) {
	proto.DecodeQueryExtension(&q.r)
	if !q.tailShort() {
		emptyReply(s, q) // Data 0: no extensions are implemented
	}
}

// preparePlay brings a play request's data to what the buffering engine
// takes — native byte order, decompressed — once, before attempt 0. A
// compressed play's decompression is p's frame, counted like a parked
// play's copy, so it is returned by whoever finishes the call.
func (p *parked) preparePlay(q proto.PlaySamplesReq) {
	p.play, p.playEnc = q, p.a.enc
	if q.Flags&proto.SampleFlagBigEndian != 0 {
		sampleconv.SwapBytes(p.playEnc, q.Data) // Data aliases the request body, which we own
	}
	if p.playEnc == sampleconv.ADPCM4 {
		// Conversion module: decompress the stream into p's frame before
		// the buffering engine sees it. State carries across requests.
		p.frame = p.c.s.getFrame(4 * len(q.Data))
		p.a.playCoder.DecodeLin16(p.frame.B, q.Data)
		p.play.Data, p.playEnc = p.frame.B, sampleconv.LIN16
	}
}

// servePlay makes one attempt at the play in p, under the owning engine's
// lock, and reports whether it finished. When the tail lies beyond the
// buffer horizon the connection blocks until time advances (§6.1.5
// "Beyond near future") and p is left holding what remains, which
// parkLocked copies out of the ingress buffer unless p's frame holds it
// already. The only difference between attempts is where the ack goes:
// attempt 0 runs inside a dispatch group and stages it, a resumed attempt
// sends it.
func servePlay(p *parked, staged bool) bool {
	a := p.a
	res := a.dev.Play(atime.ATime(p.play.Time), p.play.Data, p.playEnc, a.playGain, a.preempt)
	if res.Blocked {
		p.play.Data = p.play.Data[p.playEnc.BytesPerSamples(res.Consumed*a.channels):]
		p.play.Time = uint32(atime.Add(atime.ATime(p.play.Time), res.Consumed))
		return false
	}
	if p.play.Flags&proto.SampleFlagSuppressReply == 0 {
		reply := proto.Reply{Time: uint32(res.Now)}
		if staged {
			p.c.stagedReply(&reply, p.seq)
		} else {
			p.c.sendReply(&reply, p.seq)
		}
	}
	return true
}

// serveRecord makes one attempt at the record in p, under e.mu, and
// reports whether it finished. A blocking record whose data has not all
// been captured leaves p to be retried at the moment its last sample
// should exist.
func (e *engine) serveRecord(p *parked) bool {
	a, q := p.a, p.rec
	if q.NBytes > proto.MaxRequestBytes {
		p.c.sendError(proto.ErrValue, q.NBytes, p.op, p.seq)
		return true
	}
	if !a.recording {
		// First record under this context: mark it and enable the
		// periodic record update.
		a.recording = true
		e.root.RecRefCount++
	}
	// Scatter-gather egress: check out the wire message up front and let
	// the device convert samples from the record ring straight into its
	// payload region. The engine lock we hold makes the in-place marshal
	// safe — nothing else can touch the ring or advance device time while
	// the conversion runs, and the message is private until c.send. A
	// compressed context records lin16 there and codes it in place.
	want, enc := a.enc.Frames(int(q.NBytes), a.channels), a.enc
	if enc == sampleconv.ADPCM4 {
		enc = sampleconv.LIN16
	}
	m, dst := newRecordReplyMsg(enc.BytesPerSamples(want * a.channels))
	res := a.dev.Record(atime.ATime(q.Time), dst, enc, a.recGain)
	if res.Avail < want && q.Flags&proto.SampleFlagNoBlock == 0 {
		// Blocking record: the connection waits until all requested data
		// has been captured. The message returns to its pool; the next
		// attempt checks one out again.
		m.release()
		end := atime.Add(atime.ATime(q.Time), want)
		e.wakeLocked(p, int(atime.Sub(end, res.Now)))
		return false
	}
	n, flags := enc.BytesPerSamples(res.Avail*a.channels), q.Flags
	if a.enc == sampleconv.ADPCM4 {
		// Whole ADPCM bytes only. flags=0: ADPCM data is a byte stream,
		// never byte-swapped.
		n, flags = a.recCoder.EncodeLin16(dst, dst[:2*(res.Avail&^1)]), 0
	}
	finishRecordReply(p.c, a, m, n, uint32(res.Now), flags, p.seq)
	return true
}
