package main

import (
	"bytes"
	"fmt"

	"audiofile/af"
	"audiofile/internal/atime"
	"audiofile/internal/core"
	"audiofile/internal/proto"
	"audiofile/internal/sampleconv"
	"audiofile/internal/vdev"
)

// opRunner performs a cycle's ops at one layer. The af runner is the
// measured workload itself; the raw, core and kernel runners push the
// same ops through the layers below it, for the ladder.
type opRunner interface {
	run(op opSpec) error
	state() *opState
}

// opState is what every runner tracks while it cycles: where in device
// time the cycle's requests go, and what came back.
type opState struct {
	w      *workload
	in     *inputs
	t0     uint32 // device time the runner started from
	cursor uint32 // device time the current cycle's requests are relative to
	n      uint32 // cycles completed
	bytes  int64  // useful audio bytes moved
	last   uint32 // newest reply time seen
}

func newOpState(w *workload, in *inputs, t0 uint32) opState {
	return opState{w: w, in: in, t0: t0, cursor: t0, last: t0}
}

// restart points the state at device time t0, past everything earlier
// cycles scheduled, as a new state would be; the counts carry on.
func (s *opState) restart(t0 uint32) { s.t0, s.cursor = t0, t0 }

// playTime and recordTime place a request relative to the cursor; cycle n
// uses the n-th of the seeded start offsets, so every play of one cycle
// lands on the same region.
func (s *opState) playTime(op opSpec) uint32 {
	return s.cursor + uint32(int32(op.lead+s.in.playOff[s.n%variants]))
}

func (s *opState) recordTime(op opSpec) uint32 {
	return s.cursor + uint32(int32(op.lead-s.in.recOff[s.n%variants]))
}

// playData is the sample bytes a play sends: the connection's payload, or
// on the loopback workload the stream bytes that belong at that time.
func (s *opState) playData(op opSpec) []byte {
	if s.w.loopDelay == 0 {
		return s.in.payload[op.conn][:op.bytes]
	}
	pos := (s.cursor - s.t0 + uint32(op.lead)) % streamLen
	return s.in.stream[pos : pos+uint32(op.bytes)]
}

// replyTime checks that a reply's device time did not run backwards.
func (s *opState) replyTime(t uint32) error {
	if int32(t-s.last) < 0 {
		return fmt.Errorf("reply time ran backwards: %d after %d", t, s.last)
	}
	s.last = t
	return nil
}

// checkRecord verifies a record's bytes. On the loopback workload the
// byte recorded at device time T+delay must be the byte played at T, for
// every frame; elsewhere the source is silent, so the canaries planted
// before the call must have been overwritten with silence.
func (s *opState) checkRecord(start uint32, buf []byte) error {
	if s.w.loopDelay == 0 {
		for _, i := range [...]int{0, len(buf) / 2, len(buf) - 1} {
			if buf[i] != s.w.silence() {
				return fmt.Errorf("record byte %d is %#x, want silence", i, buf[i])
			}
		}
		return nil
	}
	first := s.t0 + playLead // device time of the first byte ever played
	for i := 0; i < len(buf); {
		src := start + uint32(i) - uint32(s.w.loopDelay) // when this byte was played
		if int32(src-first) < 0 {
			if buf[i] != 0xFF {
				return fmt.Errorf("recorded %#x at time %d before anything was played", buf[i], start+uint32(i))
			}
			i++
			continue
		}
		pos := (src - s.t0) % streamLen
		n := min(len(buf)-i, streamLen-int(pos))
		if !bytes.Equal(buf[i:i+n], s.in.stream[pos:int(pos)+n]) {
			return fmt.Errorf("loopback mismatch: the %d bytes recorded at time %d are not those played at %d", n, start+uint32(i), src)
		}
		i += n
	}
	return nil
}

// endCycle moves on to the next cycle.
func (s *opState) endCycle() {
	s.n++
	s.cursor += uint32(s.w.advance)
}

// plantCanaries marks bytes a full record must overwrite.
func plantCanaries(buf []byte) {
	buf[0], buf[len(buf)/2], buf[len(buf)-1] = 0xAA, 0xAA, 0xAA
}

// afRunner runs a workload's cycles through the client library: the
// measured thing.
type afRunner struct {
	opState
	r      *rig
	rec    []byte
	bursts []*wireOp // smallop: the encoded burst variants
}

func newAFRunner(r *rig, in *inputs) (*afRunner, error) {
	a := &afRunner{opState: newOpState(r.w, in, r.t0), r: r}
	a.rec = make([]byte, max(1, r.w.maxOp(opRecord)))
	for _, op := range r.w.ops {
		if op.kind != opBurst {
			continue
		}
		for v := 0; v < variants; v++ {
			wo, err := buildWireOp(r.w, in, op, v)
			if err != nil {
				return nil, err
			}
			wo.setTime(a.cursor + uint32(op.lead+in.playOff[v]))
			a.bursts = append(a.bursts, wo)
		}
	}
	return a, nil
}

func (a *afRunner) state() *opState { return &a.opState }

func (a *afRunner) run(op opSpec) error {
	cc := a.r.conns[op.conn]
	switch op.kind {
	case opGetTime:
		t, err := cc.conn.GetTime(0)
		if err != nil {
			return err
		}
		return a.replyTime(uint32(t))
	case opPlay:
		t, err := cc.ac.PlaySamples(af.ATime(a.playTime(op)), a.playData(op))
		if err != nil {
			return err
		}
		a.bytes += int64(op.bytes)
		return a.replyTime(uint32(t))
	case opRecord:
		buf := a.rec[:op.bytes]
		plantCanaries(buf)
		start := a.recordTime(op)
		t, n, err := cc.ac.RecordSamples(af.ATime(start), buf, false)
		if err != nil {
			return err
		}
		if n != len(buf) {
			return fmt.Errorf("record returned %d of %d bytes", n, len(buf))
		}
		a.bytes += int64(n)
		if err := a.replyTime(uint32(t)); err != nil {
			return err
		}
		return a.checkRecord(start, buf)
	case opSync:
		a.r.clk.Advance(a.w.advance)
		a.r.srv.Sync()
		return nil
	case opBurst:
		wo := a.bursts[a.n%variants]
		if _, err := cc.raw.roundTrip(wo.req, wo.nreq, wo.replies); err != nil {
			return err
		}
		a.bytes += int64(op.bytes)
		return nil
	}
	return fmt.Errorf("unknown op %d", op.kind)
}

// rawRunner sends the same requests af would, as prebuilt frames on a raw
// connection: the ladder's pipe, unix, tcp and routed rungs.
type rawRunner struct {
	opState
	r   *rig
	rc  *rawConn
	ops map[opSpec][]*wireOp // per op, one encoding per variant
}

func newRawRunner(r *rig, in *inputs, rc *rawConn, t0 uint32) (*rawRunner, error) {
	x := &rawRunner{opState: newOpState(r.w, in, t0), r: r, rc: rc, ops: map[opSpec][]*wireOp{}}
	for _, op := range r.w.ops {
		if op.kind == opSync {
			continue
		}
		nv := 1
		if op.kind == opBurst {
			nv = variants
		}
		for v := 0; v < nv; v++ {
			wo, err := buildWireOp(r.w, in, op, v)
			if err != nil {
				return nil, err
			}
			x.ops[op] = append(x.ops[op], wo)
		}
	}
	return x, nil
}

func (x *rawRunner) state() *opState { return &x.opState }

func (x *rawRunner) run(op opSpec) error {
	if op.kind == opSync {
		x.r.clk.Advance(x.w.advance)
		x.r.srv.Sync()
		return nil
	}
	vs := x.ops[op]
	wo := vs[int(x.n)%len(vs)]
	switch op.kind {
	case opPlay:
		if x.w.loopDelay > 0 {
			// The stream moves on every cycle; the frame is one chunk.
			copy(wo.req[proto.PlayHeaderBytes:], x.playData(op))
		}
		wo.setTime(x.playTime(op))
	case opBurst:
		wo.setTime(x.playTime(op))
	case opRecord:
		wo.setTime(x.recordTime(op))
	}
	rep, err := x.rc.roundTrip(wo.req, wo.nreq, wo.replies)
	if err != nil {
		return err
	}
	switch op.kind {
	case opPlay, opBurst:
		x.bytes += int64(op.bytes)
	case opRecord:
		// rep is the last chunk's reply.
		lastAt := (op.bytes - 1) / proto.ChunkBytes * proto.ChunkBytes
		want := op.bytes - lastAt
		if int(rep.Aux) != want || len(rep.Extra) < want {
			return fmt.Errorf("record reply carries %d bytes, want %d", rep.Aux, want)
		}
		x.bytes += int64(op.bytes)
		return x.checkRecord(x.recordTime(op)+uint32(lastAt/x.w.frameBytes()), rep.Extra[:want])
	}
	return nil
}

// coreDevice builds a standalone core.Device of the workload's kind on
// its own manual clock, primed like the server's, for the core rung.
func coreDevice(w *workload) (*core.Device, *vdev.ManualClock) {
	// The shapes aserver gives its codec and hifi devices.
	cfg := vdev.Config{Name: "codec0", Rate: w.rate(), Enc: sampleconv.MU255, Channels: 1, HWFrames: 1024}
	if w.hifi {
		cfg = vdev.Config{Name: "hifi0", Rate: w.rate(), Enc: sampleconv.LIN16, Channels: 2, HWFrames: 4096}
	}
	clk := vdev.NewManualClock(cfg.Rate)
	cfg.Clock = clk
	if w.loopDelay > 0 {
		lb := vdev.NewLoopback(4*cfg.HWFrames, 1, w.loopDelay, 0xFF)
		cfg.Sink, cfg.Source = lb, lb
	}
	hw := vdev.New(cfg)
	d := core.NewDevice(core.Config{Name: cfg.Name, Rate: cfg.Rate, Enc: cfg.Enc, Channels: cfg.Channels}, hw)
	d.RecRefCount = 1
	total, step := w.primeFrames()
	for t := 0; t < total; t += step {
		clk.Advance(step)
		d.Update()
	}
	return d, clk
}

// coreRunner calls core.Device directly: no server, no wire.
type coreRunner struct {
	opState
	d   *core.Device
	clk *vdev.ManualClock
	enc sampleconv.Encoding
	rec []byte
}

func newCoreRunner(w *workload, in *inputs) *coreRunner {
	d, clk := coreDevice(w)
	c := &coreRunner{d: d, clk: clk, enc: d.Cfg.Enc, rec: make([]byte, max(1, w.maxOp(opRecord)))}
	c.opState = newOpState(w, in, uint32(d.Time()))
	return c
}

func (c *coreRunner) state() *opState { return &c.opState }

func (c *coreRunner) run(op opSpec) error {
	switch op.kind {
	case opGetTime:
		return c.replyTime(uint32(c.d.Time()))
	case opPlay:
		return c.play(c.playTime(op), c.playData(op), c.w.preempt[op.conn])
	case opRecord:
		buf := c.rec[:op.bytes]
		plantCanaries(buf)
		start := c.recordTime(op)
		res := c.d.Record(atime.ATime(start), buf, c.enc, 0)
		if res.Avail*c.w.frameBytes() != len(buf) {
			return fmt.Errorf("core record returned %d frames", res.Avail)
		}
		c.bytes += int64(len(buf))
		return c.checkRecord(start, buf)
	case opSync:
		c.clk.Advance(c.w.advance)
		c.d.Update()
		return nil
	case opBurst:
		t := c.playTime(op)
		for _, play := range c.in.order[c.n%variants] {
			if !play {
				c.d.Time()
				continue
			}
			if err := c.play(t, c.in.burstPl, c.w.preempt[op.conn]); err != nil {
				return err
			}
			t += burstPlay
		}
		return nil
	}
	return fmt.Errorf("unknown op %d", op.kind)
}

func (c *coreRunner) play(t uint32, data []byte, preempt bool) error {
	res := c.d.Play(atime.ATime(t), data, c.enc, 0, preempt)
	if res.Blocked || res.Consumed*c.w.frameBytes() != len(data) {
		return fmt.Errorf("core play consumed %d frames of %d bytes", res.Consumed, len(data))
	}
	c.bytes += int64(len(data))
	return nil
}

// kernelRunner runs only the sampleconv kernel each op selects, on flat
// buffers: the floor under everything else.
type kernelRunner struct {
	opState
	bps         int               // bytes per sample
	copyK, mixK sampleconv.Kernel // what SelectKernel gives a preempting and a mixing play (or a record) at unity gain
	ring, out   []byte
}

func newKernelRunner(w *workload, in *inputs) *kernelRunner {
	enc := sampleconv.MU255
	if w.hifi {
		enc = sampleconv.LIN16
	}
	k := &kernelRunner{
		opState: newOpState(w, in, 0), bps: enc.BytesPerSamples(1),
		copyK: sampleconv.SelectKernel(enc, enc, false, false), mixK: sampleconv.SelectKernel(enc, enc, true, false),
	}
	n := max(w.maxOp(opPlay), w.maxOp(opRecord), burstPlay)
	k.ring, k.out = make([]byte, n), make([]byte, n)
	sampleconv.Silence(enc, k.ring)
	return k
}

func (k *kernelRunner) state() *opState { return &k.opState }

func (k *kernelRunner) run(op opSpec) error {
	play := k.copyK
	if k.w.mixes(op) {
		play = k.mixK
	}
	switch op.kind {
	case opPlay:
		play(k.ring, k.playData(op), op.bytes/k.bps, sampleconv.GainUnity)
	case opRecord:
		k.copyK(k.out, k.ring, op.bytes/k.bps, sampleconv.GainUnity)
	case opBurst:
		for i := 0; i < burstReqs/2; i++ {
			play(k.ring, k.in.burstPl, burstPlay/k.bps, sampleconv.GainUnity)
		}
	}
	return nil
}
