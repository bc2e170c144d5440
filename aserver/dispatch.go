package aserver

import (
	"time"

	"audiofile/internal/atime"
	"audiofile/internal/phonesim"
	"audiofile/internal/proto"
	"audiofile/internal/sampleconv"
)

// hotReq is a hot request decoded and placed: the engine that serves it
// or, when e is nil, the error that answers it.
type hotReq struct {
	e    *engine
	dev  uint32 // GetTime
	a    *ac    // PlaySamples, RecordSamples
	play proto.PlaySamplesReq
	rec  proto.RecordSamplesReq

	code uint8
	bad  uint32
}

// hotEngine decodes a hot request into h and names the engine that will
// serve it; h is the caller's, reused across a group, and only the fields
// of rf's opcode (and e, code and bad) mean anything afterwards. This is
// the only place a hot request is validated: what it accepts,
// dispatchHotGroup serves without looking again. Safe on the reader
// goroutine: c.acs is only mutated by control requests, which the same
// goroutine dispatches.
func (s *Server) hotEngine(c *client, rf *runFrame, h *hotReq) {
	h.e, h.code, h.bad = nil, 0, 0
	var r proto.Reader // fields stored in place: a composite literal is built beside r and copied in
	r.Order, r.Buf = c.order, rf.body
	var id uint32
	switch rf.op {
	case proto.OpGetTime:
		h.dev = proto.DecodeDeviceReq(&r)
		if !s.validDevice(h.dev) {
			h.code, h.bad = proto.ErrDevice, h.dev
			return
		}
		h.e = s.engineByDev[h.dev]
		return
	case proto.OpPlaySamples:
		h.play = proto.DecodePlaySamples(&r, rf.ext)
		id = h.play.AC
	case proto.OpRecordSamples:
		h.rec = proto.DecodeRecordSamples(&r, rf.ext)
		id = h.rec.AC
	}
	if r.Err != nil {
		h.code = proto.ErrLength
		return
	}
	if h.a = c.acs[id]; h.a == nil {
		h.code, h.bad = proto.ErrAC, id
		return
	}
	h.e = s.engineByDev[h.a.devIndex]
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
	var playBytes uint64
	var chunk, nChunk uint64 // a stretch of plays of one size: one playChunk observation
	var nPlay, nRec, nTime uint64
	consumed := 0
	// Only this goroutine advances c.seq, so the group counts in a local
	// and publishes where its replies leave the stage: an event another
	// goroutine stamps meanwhile never carries a number older than a reply
	// queued ahead of it.
	seq32 := c.seq.Load()
	var h hotReq
	for i := range run {
		rf := &run[i]
		if !hotOp(rf.op) {
			break
		}
		s.hotEngine(c, rf, &h)
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
			c.stagedError(h.code, h.bad, rf.op, seq)
			continue
		}
		// A play or record here is attempt 0 of a call whose state lives on
		// this stack; if it blocks, the engine keeps a copy to resume.
		switch rf.op {
		case proto.OpGetTime:
			c.stagedReply(&proto.Reply{Time: uint32(s.devices[h.dev].Time())}, seq)
		case proto.OpPlaySamples:
			// Play ingress is counted here, the single entry point every
			// accepted PlaySamples request passes through (resumed attempts
			// re-consume the same bytes and are not re-counted).
			playBytes += uint64(len(h.play.Data))
			if n := uint64(len(h.play.Data)); n != chunk {
				e.m.playChunk.ObserveN(int64(chunk), nChunk)
				chunk, nChunk = n, 0
			}
			nChunk++
			call := parked{c: c, a: h.a, op: rf.op, seq: seq}
			call.preparePlay(h.play)
			if !servePlay(&call, true) {
				park = e.parkLocked(&call)
			}
		case proto.OpRecordSamples:
			// serveRecord queues its reply directly; anything staged so
			// far must leave first to preserve reply order.
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
	c.seq.Store(seq32)
	c.flushStage()
	// The group's second and last clock reading: the lock hold and the
	// dispatch latency both end here.
	end := time.Since(t0)
	k := int64(consumed)
	if e != nil {
		if nChunk != 0 {
			e.m.playBytes.Add(playBytes)
			e.m.playChunk.ObserveN(int64(chunk), nChunk)
		}
		e.m.unlockTimed(&e.mu, held, end)
		e.m.dispatchBatch.Observe(k)
	}
	// Batch sizes are observed after the request count, so
	// DispatchBatch.Sum <= Requests in every live snapshot and == once
	// idle.
	s.requestCount.Add(uint64(consumed))
	s.sm.dispatchBatch.Observe(k)
	// Observed per op class so the requests == Σ dispatch counts law
	// holds.
	per := end.Nanoseconds() / k
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

// dispatchControl indexes the request type into the handler table, as
// the DIA dispatcher does, and runs the handler to completion. Caller
// holds s.ctl.
func (s *Server) dispatchControl(c *client, rf runFrame) {
	t0 := time.Now()
	c.lastActive.Store(t0.UnixNano())
	s.dispatchControlInner(c, rf)
	s.sm.dispatchControl.Observe(time.Since(t0).Nanoseconds())
	// Control ops always dispatch as a batch of one (ordered after the
	// request count, as in dispatchHotGroup).
	s.sm.dispatchBatch.Observe(1)
}

func (s *Server) dispatchControlInner(c *client, rf runFrame) {
	seq := uint16(c.seq.Add(1))
	s.requestCount.Add(1)
	r := proto.NewReader(c.order, rf.body)
	switch rf.op {
	case proto.OpSelectEvents:
		q := proto.DecodeSelectEvents(r)
		if c.short(r, rf.op, seq) {
			return
		}
		if !s.validDevice(q.Device) {
			c.sendError(proto.ErrDevice, q.Device, rf.op, seq)
			return
		}
		s.clientMu.Lock()
		c.eventMasks[int(q.Device)] = q.Mask
		s.clientMu.Unlock()

	case proto.OpCreateAC:
		q := proto.DecodeCreateAC(r)
		if c.short(r, rf.op, seq) {
			return
		}
		s.handleCreateAC(c, rf.op, q, seq)

	case proto.OpChangeACAttributes:
		q := proto.DecodeChangeAC(r)
		if c.short(r, rf.op, seq) {
			return
		}
		a := c.acs[q.AC]
		if a == nil {
			c.sendError(proto.ErrAC, q.AC, rf.op, seq)
			return
		}
		s.applyACAttrs(c, rf.op, a, q.Mask, q.Attrs, seq)

	case proto.OpFreeAC:
		id := r.U32()
		if c.short(r, rf.op, seq) {
			return
		}
		a := c.acs[id]
		if a == nil {
			c.sendError(proto.ErrAC, id, rf.op, seq)
			return
		}
		s.releaseAC(a)
		delete(c.acs, id)

	case proto.OpSubscribe:
		id := proto.DecodeACReq(r)
		if c.short(r, rf.op, seq) {
			return
		}
		a := c.acs[id]
		if a == nil {
			c.sendError(proto.ErrAC, id, rf.op, seq)
			return
		}
		e := s.engineByDev[a.devIndex]
		e.mu.Lock()
		code := e.subscribeLocked(c, a)
		now := a.dev.Now()
		e.mu.Unlock()
		if code != 0 {
			c.sendError(code, id, rf.op, seq)
			return
		}
		// Aux identifies the channel the subscription joined: broadcast
		// messages are routed client-side by this device index.
		c.sendReply(&proto.Reply{Time: uint32(now), Aux: uint32(a.devIndex)}, seq)

	case proto.OpUnsubscribe:
		id := proto.DecodeACReq(r)
		if c.short(r, rf.op, seq) {
			return
		}
		a := c.acs[id]
		if a == nil {
			c.sendError(proto.ErrAC, id, rf.op, seq)
			return
		}
		e := s.engineByDev[a.devIndex]
		e.mu.Lock()
		e.unsubscribeLocked(a)
		now := a.dev.Now()
		e.mu.Unlock()
		c.sendReply(&proto.Reply{Time: uint32(now)}, seq)

	case proto.OpQueryPhone:
		dev := proto.DecodeDeviceReq(r)
		if c.short(r, rf.op, seq) {
			return
		}
		line := s.lineFor(dev)
		if line == nil {
			c.sendError(proto.ErrMatch, dev, rf.op, seq)
			return
		}
		var hook, loop uint32
		if line.OffHook() {
			hook = 1
		}
		if line.LoopCurrent() {
			loop = 1
		}
		c.sendReply(&proto.Reply{Data: uint8(hook), Aux: loop,
			Time: uint32(s.deviceTime(dev))}, seq)

	case proto.OpEnablePassThrough:
		q := proto.DecodePassThrough(r)
		if c.short(r, rf.op, seq) {
			return
		}
		s.handleEnablePassThrough(c, rf.op, q, seq)

	case proto.OpDisablePassThrough:
		dev := proto.DecodeDeviceReq(r)
		if c.short(r, rf.op, seq) {
			return
		}
		if !s.validDevice(dev) {
			c.sendError(proto.ErrDevice, dev, rf.op, seq)
			return
		}
		for _, e := range s.engines {
			e.mu.Lock()
			for idx, p := range e.patches {
				if p.a.Index == int(dev) || p.b.Index == int(dev) {
					delete(e.patches, idx)
				}
			}
			e.mu.Unlock()
		}

	case proto.OpHookSwitch:
		dev := proto.DecodeDeviceReq(r)
		if c.short(r, rf.op, seq) {
			return
		}
		line := s.lineFor(dev)
		if line == nil {
			c.sendError(proto.ErrMatch, dev, rf.op, seq)
			return
		}
		line.SetHook(rf.ext == proto.HookOff)
		s.updateEngine(dev) // deliver the hook event promptly

	case proto.OpFlashHook:
		q := proto.DecodeFlashHook(r)
		if c.short(r, rf.op, seq) {
			return
		}
		line := s.lineFor(q.Device)
		if line == nil {
			c.sendError(proto.ErrMatch, q.Device, rf.op, seq)
			return
		}
		if !line.OffHook() {
			c.sendError(proto.ErrMatch, q.Device, rf.op, seq)
			return
		}
		dur := time.Duration(q.DurationMs) * time.Millisecond
		if dur == 0 {
			dur = 500 * time.Millisecond
		}
		line.SetHook(false)
		dev := q.Device
		// The re-hook is a one-shot timer; the engine is only entered to
		// deliver the event.
		time.AfterFunc(dur, func() {
			line.SetHook(true)
			s.updateEngine(dev)
		})
		s.updateEngine(dev)

	case proto.OpEnableGainControl:
		s.gainControl = true
	case proto.OpDisableGainControl:
		s.gainControl = false

	case proto.OpDialPhone:
		// Obsolete: FCC dialing timing cannot be met from the server's
		// tasking system; clients dial by playing tone pairs themselves.
		c.sendError(proto.ErrImplementation, 0, rf.op, seq)

	case proto.OpSetInputGain, proto.OpSetOutputGain:
		q := proto.DecodeGainReq(r)
		if c.short(r, rf.op, seq) {
			return
		}
		if !s.validDevice(q.Device) {
			c.sendError(proto.ErrDevice, q.Device, rf.op, seq)
			return
		}
		if q.Gain < minDeviceGain || q.Gain > maxDeviceGain {
			c.sendError(proto.ErrValue, uint32(q.Gain), rf.op, seq)
			return
		}
		e := s.engineByDev[q.Device]
		e.mu.Lock()
		if rf.op == proto.OpSetInputGain {
			s.devices[q.Device].SetInputGain(int(q.Gain))
		} else {
			s.devices[q.Device].SetOutputGain(int(q.Gain))
		}
		e.mu.Unlock()

	case proto.OpQueryInputGain, proto.OpQueryOutputGain:
		dev := proto.DecodeDeviceReq(r)
		if c.short(r, rf.op, seq) {
			return
		}
		if !s.validDevice(dev) {
			c.sendError(proto.ErrDevice, dev, rf.op, seq)
			return
		}
		e := s.engineByDev[dev]
		e.mu.Lock()
		cur := s.devices[dev].InputGain()
		if rf.op == proto.OpQueryOutputGain {
			cur = s.devices[dev].OutputGain()
		}
		e.mu.Unlock()
		s.sendGainReply(c, cur, seq)

	case proto.OpEnableInput, proto.OpEnableOutput, proto.OpDisableInput, proto.OpDisableOutput:
		q := proto.DecodeDeviceMaskReq(r)
		if c.short(r, rf.op, seq) {
			return
		}
		if !s.validDevice(q.Device) {
			c.sendError(proto.ErrDevice, q.Device, rf.op, seq)
			return
		}
		d := s.devices[q.Device]
		e := s.engineByDev[q.Device]
		e.mu.Lock()
		switch rf.op {
		case proto.OpEnableInput:
			d.EnableInputs(q.Mask)
		case proto.OpEnableOutput:
			d.EnableOutputs(q.Mask)
		case proto.OpDisableInput:
			d.DisableInputs(q.Mask)
		case proto.OpDisableOutput:
			d.DisableOutputs(q.Mask)
		}
		e.mu.Unlock()

	case proto.OpSetAccessControl:
		s.accessEnabled = rf.ext != 0

	case proto.OpChangeHosts:
		q := proto.DecodeChangeHosts(r, rf.ext)
		if c.short(r, rf.op, seq) {
			return
		}
		s.handleChangeHosts(q)

	case proto.OpListHosts:
		w := proto.Writer{Order: c.order}
		proto.EncodeHostList(&w, s.accessList)
		enabled := uint8(0)
		if s.accessEnabled {
			enabled = 1
		}
		c.sendReply(&proto.Reply{Data: enabled, Aux: uint32(len(s.accessList)), Extra: w.Buf}, seq)

	case proto.OpInternAtom:
		q := proto.DecodeInternAtom(r, rf.ext)
		if c.short(r, rf.op, seq) {
			return
		}
		c.sendReply(&proto.Reply{Aux: s.atoms.intern(q.Name, q.OnlyIfExists)}, seq)

	case proto.OpGetAtomName:
		id := r.U32()
		if c.short(r, rf.op, seq) {
			return
		}
		name := s.atoms.name(id)
		if name == "" {
			c.sendError(proto.ErrAtom, id, rf.op, seq)
			return
		}
		w := proto.Writer{Order: c.order}
		w.U16(uint16(len(name)))
		w.Skip(2)
		w.String4(name)
		c.sendReply(&proto.Reply{Aux: uint32(len(name)), Extra: w.Buf}, seq)

	case proto.OpChangeProperty:
		q := proto.DecodeChangeProperty(r, rf.ext)
		if c.short(r, rf.op, seq) {
			return
		}
		s.handleChangeProperty(c, rf.op, q, seq)

	case proto.OpDeleteProperty:
		q := proto.DecodeDeleteProperty(r)
		if c.short(r, rf.op, seq) {
			return
		}
		if !s.validDevice(q.Device) {
			c.sendError(proto.ErrDevice, q.Device, rf.op, seq)
			return
		}
		if !s.atoms.valid(q.Property) {
			c.sendError(proto.ErrAtom, q.Property, rf.op, seq)
			return
		}
		if _, ok := s.props[q.Device][q.Property]; ok {
			delete(s.props[q.Device], q.Property)
			s.deliverEvent(int(q.Device), s.deviceNow(q.Device), proto.EventPropertyChange, 1, q.Property)
		}

	case proto.OpGetProperty:
		q := proto.DecodeGetProperty(r, rf.ext)
		if c.short(r, rf.op, seq) {
			return
		}
		s.handleGetProperty(c, rf.op, q, seq)

	case proto.OpListProperties:
		dev := proto.DecodeDeviceReq(r)
		if c.short(r, rf.op, seq) {
			return
		}
		if !s.validDevice(dev) {
			c.sendError(proto.ErrDevice, dev, rf.op, seq)
			return
		}
		w := proto.Writer{Order: c.order}
		n := 0
		for atom := range s.props[dev] {
			w.U32(atom)
			n++
		}
		c.sendReply(&proto.Reply{Aux: uint32(n), Extra: w.Buf}, seq)

	case proto.OpNoOperation:
		// Non-blocking no-op: no reply.

	case proto.OpSyncConnection:
		// Round-trip no-op.
		c.sendReply(&proto.Reply{}, seq)

	case proto.OpQueryExtension:
		proto.DecodeQueryExtension(r)
		if c.short(r, rf.op, seq) {
			return
		}
		c.sendReply(&proto.Reply{Data: 0}, seq) // no extensions are implemented

	case proto.OpListExtensions:
		c.sendReply(&proto.Reply{Data: 0}, seq)

	case proto.OpKillClient:
		c.sendError(proto.ErrImplementation, 0, rf.op, seq)

	default:
		c.sendError(proto.ErrRequest, uint32(rf.op), rf.op, seq)
	}
}

// short answers a request whose body ended before its fields did with
// ErrLength and reports that it did: a decoder reads zeros past the end,
// and zeros name device 0, AC 0 and gain 0, so every control op checks
// here, after decoding and before acting.
func (c *client) short(r *proto.Reader, op uint8, seq uint16) bool {
	if r.Err == nil {
		return false
	}
	c.sendError(proto.ErrLength, 0, op, seq)
	return true
}

// Device gain limits, matching the utility library's table range.
const (
	minDeviceGain = -30
	maxDeviceGain = 30
)

func (s *Server) sendGainReply(c *client, cur int, seq uint16) {
	w := proto.Writer{Order: c.order}
	w.I32(minDeviceGain)
	w.I32(maxDeviceGain)
	c.sendReply(&proto.Reply{Aux: uint32(int32(cur)), Extra: w.Buf}, seq)
}

func (s *Server) validDevice(dev uint32) bool {
	return int(dev) < len(s.devices)
}

func (s *Server) lineFor(dev uint32) *phonesim.Line {
	if !s.validDevice(dev) {
		return nil
	}
	return s.lines[int(dev)]
}

func (s *Server) handleCreateAC(c *client, op uint8, q proto.CreateACReq, seq uint16) {
	if !s.validDevice(q.Device) {
		c.sendError(proto.ErrDevice, q.Device, op, seq)
		return
	}
	if _, exists := c.acs[q.AC]; exists {
		c.sendError(proto.ErrValue, q.AC, op, seq)
		return
	}
	d := s.devices[q.Device]
	a := &ac{
		id:       q.AC,
		dev:      d,
		devIndex: int(q.Device),
		enc:      d.Cfg.Enc,
		channels: d.Cfg.Channels,
	}
	if !s.applyACAttrs(c, op, a, q.Mask, q.Attrs, seq) {
		return
	}
	c.acs[q.AC] = a
}

// applyACAttrs validates and applies masked attributes; it reports
// success (errors have been sent on failure).
func (s *Server) applyACAttrs(c *client, op uint8, a *ac, mask uint32, attrs proto.ACAttributes, seq uint16) bool {
	if mask&proto.ACEncoding != 0 {
		e := sampleconv.Encoding(attrs.Type)
		if !e.Valid() {
			c.sendError(proto.ErrValue, uint32(attrs.Type), op, seq)
			return false
		}
		if e == sampleconv.ADPCM4 {
			// The compressed conversion module handles mono streams.
			if a.dev.Cfg.Channels != 1 {
				c.sendError(proto.ErrMatch, uint32(attrs.Type), op, seq)
				return false
			}
			a.playCoder = &sampleconv.ADPCMCoder{}
			a.recCoder = &sampleconv.ADPCMCoder{}
		}
		a.enc = e
	}
	if mask&proto.ACChannels != 0 {
		if int(attrs.Channels) != a.dev.Cfg.Channels {
			c.sendError(proto.ErrMatch, uint32(attrs.Channels), op, seq)
			return false
		}
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

// clientFrameBytes returns the size of one frame of this context's sample
// data on the wire.
func (a *ac) clientFrameBytes() int {
	return a.enc.BytesPerSamples(1) * a.channels
}

// preparePlay brings a play request's data to what the buffering engine
// takes — native byte order, decompressed — once, before attempt 0.
func (p *parked) preparePlay(q proto.PlaySamplesReq) {
	p.play, p.playEnc = q, p.a.enc
	if q.Flags&proto.SampleFlagBigEndian != 0 {
		sampleconv.SwapBytes(p.playEnc, q.Data) // Data aliases the request body, which we own
	}
	if p.playEnc == sampleconv.ADPCM4 {
		// Conversion module: decompress the stream before the buffering
		// engine sees it. State carries across requests. Both staging
		// buffers come from the pools; the lin16 scratch returns as soon
		// as it has been re-encoded to bytes.
		nlin := 2 * len(q.Data)
		linp := getLin(nlin)
		p.a.playCoder.Decode(*linp, q.Data)
		p.playPooled = getBytes(2 * nlin)
		sampleconv.FromLin16(*p.playPooled, sampleconv.LIN16, *linp, nlin)
		putLin(linp)
		p.play.Data, p.playEnc = *p.playPooled, sampleconv.LIN16
	}
}

// servePlay makes one attempt at the play in p, under the owning engine's
// lock, and reports whether it finished. When the tail lies beyond the
// buffer horizon the connection blocks until time advances (§6.1.5
// "Beyond near future") and p is left holding what remains, which
// parkLocked copies out of the ingress buffer; a staging buffer stays
// checked out while p references it. The only difference between
// attempts is where the ack goes: attempt 0 runs inside a dispatch group
// and stages it, a resumed attempt sends it.
func servePlay(p *parked, staged bool) bool {
	a := p.a
	res := a.dev.Play(atime.ATime(p.play.Time), p.play.Data, p.playEnc, a.playGain, a.preempt)
	if res.Blocked {
		cfb := p.playEnc.BytesPerSamples(1) * a.channels
		p.play.Data = p.play.Data[res.Consumed*cfb:]
		p.play.Time = uint32(atime.Add(atime.ATime(p.play.Time), res.Consumed))
		return false
	}
	if p.playPooled != nil {
		putBytes(p.playPooled)
		p.playPooled = nil
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
	// compressed context captures linear samples into pooled staging
	// instead and codes them below: NBytes of ADPCM cover 2*NBytes frames.
	var m *wireMsg
	var dst []byte
	var linp *[]byte
	var want int // frames
	cfb, enc := a.clientFrameBytes(), a.enc
	if enc == sampleconv.ADPCM4 {
		want, enc = 2*int(q.NBytes), sampleconv.LIN16
		linp = getBytes(2 * want)
		dst = *linp
	} else {
		want = int(q.NBytes) / cfb
		m, dst = newRecordReplyMsg(want * cfb)
	}
	res := a.dev.Record(atime.ATime(q.Time), dst, enc, a.recGain)
	if res.Avail < want && q.Flags&proto.SampleFlagNoBlock == 0 {
		// Blocking record: the connection waits until all requested data
		// has been captured. The buffer returns to its pool; the next
		// attempt checks one out again.
		if linp != nil {
			putBytes(linp)
		} else {
			m.release()
		}
		end := atime.Add(atime.ATime(q.Time), want)
		e.wakeLocked(p, int(atime.Sub(end, res.Now)))
		return false
	}
	if linp == nil {
		finishRecordReply(p.c, a, m, res.Avail*cfb, uint32(res.Now), q.Flags, p.seq)
		return true
	}
	frames := res.Avail &^ 1 // whole ADPCM bytes only
	samplesp := getLin(frames)
	sampleconv.ToLin16(*samplesp, *linp, sampleconv.LIN16, frames)
	putBytes(linp)
	// The coder's output goes straight into the wire message payload; the
	// compressed bytes are never staged separately. flags=0: ADPCM data
	// is a byte stream, never byte-swapped.
	m, payload := newRecordReplyMsg(frames / 2)
	a.recCoder.Encode(payload, *samplesp)
	putLin(samplesp)
	finishRecordReply(p.c, a, m, frames/2, uint32(res.Now), 0, p.seq)
	return true
}

// handleEnablePassThrough validates a patch request and registers it on
// the lower-indexed engine, which pumps it (reaching the peer under an
// ascending two-lock acquire).
func (s *Server) handleEnablePassThrough(c *client, op uint8, q proto.PassThroughReq, seq uint16) {
	if !s.validDevice(q.Device) || !s.validDevice(q.Other) {
		c.sendError(proto.ErrDevice, q.Device, op, seq)
		return
	}
	a, b := s.devices[q.Device], s.devices[q.Other]
	if a == b || a.Cfg.Rate != b.Cfg.Rate || a.Cfg.Enc != b.Cfg.Enc ||
		a.Cfg.Channels != b.Cfg.Channels || a.IsView() || b.IsView() {
		c.sendError(proto.ErrMatch, q.Other, op, seq)
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

func (s *Server) handleChangeHosts(q proto.ChangeHostsReq) {
	switch q.Mode {
	case proto.HostInsert:
		for _, h := range s.accessList {
			if h.Family == q.Host.Family && string(h.Addr) == string(q.Host.Addr) {
				return
			}
		}
		// Copy the address: q.Host.Addr aliases the ingress buffer, which
		// is reused once this run has been dispatched.
		s.accessList = append(s.accessList, proto.HostEntry{
			Family: q.Host.Family,
			Addr:   append([]byte(nil), q.Host.Addr...),
		})
	case proto.HostDelete:
		out := s.accessList[:0]
		for _, h := range s.accessList {
			if h.Family == q.Host.Family && string(h.Addr) == string(q.Host.Addr) {
				continue
			}
			out = append(out, h)
		}
		s.accessList = out
	}
}

func (s *Server) handleChangeProperty(c *client, op uint8, q proto.ChangePropertyReq, seq uint16) {
	if !s.validDevice(q.Device) {
		c.sendError(proto.ErrDevice, q.Device, op, seq)
		return
	}
	if !s.atoms.valid(q.Property) || !s.atoms.valid(q.Type) {
		c.sendError(proto.ErrAtom, q.Property, op, seq)
		return
	}
	if q.Format != 8 && q.Format != 16 && q.Format != 32 {
		c.sendError(proto.ErrValue, uint32(q.Format), op, seq)
		return
	}
	props := s.props[q.Device]
	old := props[q.Property]
	data := append([]byte(nil), q.Data...)
	switch q.Mode {
	case proto.PropModeReplace:
		props[q.Property] = &property{typ: q.Type, format: q.Format, data: data}
	case proto.PropModePrepend, proto.PropModeAppend:
		if old != nil && (old.typ != q.Type || old.format != q.Format) {
			c.sendError(proto.ErrMatch, q.Property, op, seq)
			return
		}
		if old == nil {
			props[q.Property] = &property{typ: q.Type, format: q.Format, data: data}
		} else if q.Mode == proto.PropModePrepend {
			old.data = append(data, old.data...)
		} else {
			old.data = append(old.data, data...)
		}
	default:
		c.sendError(proto.ErrValue, uint32(q.Mode), op, seq)
		return
	}
	s.deliverEvent(int(q.Device), s.deviceNow(q.Device), proto.EventPropertyChange, 0, q.Property)
}

func (s *Server) handleGetProperty(c *client, op uint8, q proto.GetPropertyReq, seq uint16) {
	if !s.validDevice(q.Device) {
		c.sendError(proto.ErrDevice, q.Device, op, seq)
		return
	}
	if !s.atoms.valid(q.Property) {
		c.sendError(proto.ErrAtom, q.Property, op, seq)
		return
	}
	p := s.props[q.Device][q.Property]
	w := proto.Writer{Order: c.order}
	if p == nil {
		w.U32(proto.AtomNone)
		w.U32(0)
		c.sendReply(&proto.Reply{Data: 0, Extra: w.Buf}, seq)
		return
	}
	if q.Type != proto.AtomNone && q.Type != p.typ {
		// Type mismatch: report the actual type, deliver no data.
		w.U32(p.typ)
		w.U32(0)
		c.sendReply(&proto.Reply{Data: p.format, Extra: w.Buf}, seq)
		return
	}
	w.U32(p.typ)
	w.U32(uint32(len(p.data)))
	w.Bytes(p.data)
	c.sendReply(&proto.Reply{Data: p.format, Aux: uint32(len(p.data)), Extra: w.Buf}, seq)
	if q.Delete {
		delete(s.props[q.Device], q.Property)
		s.deliverEvent(int(q.Device), s.deviceNow(q.Device), proto.EventPropertyChange, 1, q.Property)
	}
}
