package main

import (
	"encoding/binary"
	"math/rand"

	"audiofile/internal/proto"
)

// opKind is one kind of call a cycle makes. A cycle is a fixed list of
// ops, so every cycle of a workload does the same work and a latency
// percentile never sits between two classes of operation.
type opKind uint8

const (
	opGetTime opKind = iota // Conn.GetTime(0)
	opPlay                  // AC.PlaySamples(cursor+lead+offset, bytes)
	opRecord                // AC.RecordSamples(cursor+lead-offset, bytes), non-blocking
	opSync                  // advance the device clock and run one server update
	opBurst                 // one pipelined write of burstReqs raw requests, read every reply
	numOpKinds
)

var opNames = [numOpKinds]string{"gettime", "play", "record", "sync", "burst"}

// spanNames names the span the benchmark records around each kind of op,
// after the layer the call enters.
var spanNames = [numOpKinds]string{"af.gettime", "af.play", "af.record", "aserver.sync", "wire.burst"}

// opSpec is one op of a cycle: which connection makes it, how many sample
// bytes it moves, and lead, the distance in frames from the cycle's time
// cursor (the frozen device time, or the loopback stream position) to the
// start of the request.
type opSpec struct {
	kind  opKind
	conn  int
	bytes int
	lead  int
}

// workload describes one traffic mix: the device it runs against, how the
// clients reach it, and the ops of one cycle. The same description drives
// the measured af cycles and every rung of the layer ladder.
type workload struct {
	name, why string
	hifi      bool   // hifi0 (44.1 kHz stereo lin16) instead of codec0 (8 kHz mono µ-law)
	transport string // "unix" or "tcp"
	preempt   []bool // one entry per client connection: its audio context preempts instead of mixing
	routed    bool   // reach the server through an aserver.Router with two backends
	loopDelay int    // > 0: codec0 output is wired to its input with this delay
	advance   int    // frames the cycle's opSync advances the device clock
	ops       []opSpec
}

const (
	burstReqs  = 32   // requests in one smallop burst: half GetTime, half plays
	burstPlay  = 64   // bytes in one burst play
	playLead   = 4000 // frames ahead of the cursor a play starts (Table 12's half second)
	loopPeriod = 160  // frames per loopback cycle: 20 ms at 8 kHz
	loopPlay   = 128  // bytes played per loopback cycle; the rest of the period is a gap
	variants   = 8    // start offsets (and burst orders) a workload cycles through
)

var workloads = []*workload{
	{
		name: "smallop", transport: "unix", preempt: []bool{false},
		why: "per-request overhead: a sync GetTime, then 32 pipelined small requests in one write; run coalescing and staged replies do the work, kernels almost none",
		ops: []opSpec{{kind: opGetTime}, {kind: opBurst, bytes: burstReqs / 2 * burstPlay, lead: playLead}},
	},
	{
		name: "mixplay", transport: "unix", preempt: []bool{true, false},
		why: "two writers on one device: one connection preempt-plays 8 KiB, the other mixes 8 KiB onto it; the mix kernel is the largest single cost and always meets fresh data",
		ops: []opSpec{{kind: opPlay, conn: 0, bytes: 8192, lead: playLead}, {kind: opPlay, conn: 1, bytes: 8192, lead: playLead}},
	},
	{
		name: "hifi_duplex", hifi: true, transport: "tcp", preempt: []bool{true, true},
		why: "a 24 KiB preempt play on one connection, a 24 KiB record of the recent past on another, over TCP: the copy fast path, scatter-gather wire and ring copies, reads beside writes",
		ops: []opSpec{{kind: opPlay, conn: 0, bytes: 24576, lead: playLead}, {kind: opRecord, conn: 1, bytes: 24576, lead: -24576 / 4}},
	},
	{
		name: "loopback", transport: "unix", preempt: []bool{false}, loopDelay: 24, advance: loopPeriod,
		why: "Table 12's real-time loop on a moving clock: update, silence fill and on-demand record update run every cycle, and the recording is checked sample-exact",
		ops: []opSpec{{kind: opSync}, {kind: opRecord, bytes: loopPeriod}, {kind: opPlay, bytes: loopPlay, lead: playLead}},
	},
	{
		name: "routed", transport: "tcp", preempt: []bool{true}, routed: true,
		why: "GetTime and an 8 KiB preempt play through the fleet router: bare forwarding at the smallest message plus a bulk splice; the only workload with the router hop",
		ops: []opSpec{{kind: opGetTime}, {kind: opPlay, bytes: 8192, lead: playLead}},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// frameBytes is the size of one client frame on the workload's device.
func (w *workload) frameBytes() int {
	if w.hifi {
		return 4
	}
	return 1
}

// rate is the sampling rate of the workload's device.
func (w *workload) rate() int {
	if w.hifi {
		return 44100
	}
	return 8000
}

// silence is the byte a silent record returns on the workload's device.
func (w *workload) silence() byte {
	if w.hifi {
		return 0
	}
	return 0xFF
}

// mixes reports whether op's samples are mixed into samples already
// written: a mixing context on a frozen clock. On a moving clock every
// play lands past the last valid sample and is copied.
func (w *workload) mixes(op opSpec) bool { return !w.preempt[op.conn] && w.advance == 0 }

// maxOp returns the largest payload of the given kind in a cycle.
func (w *workload) maxOp(kind opKind) int {
	n := 0
	for _, op := range w.ops {
		if op.kind == kind {
			n = max(n, op.bytes)
		}
	}
	return n
}

// streamLen is the period of the loopback stream in frames, a whole
// number of loopback cycles.
const streamLen = loopPeriod * 256

// inputs is everything the seed decides. The server only ever sees the
// requests generated from it.
type inputs struct {
	payload [][]byte         // per connection: the sample bytes its plays send
	playOff [variants]int    // play start offsets in frames, cycled through
	recOff  [variants]int    // how far further back each record starts
	order   [variants][]bool // smallop: per burst variant, true where the slot is a play
	burstPl []byte           // smallop: the burst plays' payload
	stream  []byte           // loopback: the µ-law stream, indexed by stream position
}

// offsetStep keeps every seed's start offsets on the same alignment, so a
// seed picks which ring regions are touched but not how the copies align.
const offsetStep = 64

func makeInputs(w *workload, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for range w.preempt {
		p := make([]byte, w.maxOp(opPlay))
		rng.Read(p)
		in.payload = append(in.payload, p)
	}
	if w.advance == 0 {
		// The span of start offsets leaves the longest play inside the
		// server's buffer window on either device.
		span := 16384
		if w.hifi {
			span = 65536
		}
		for i := range in.playOff {
			in.playOff[i] = rng.Intn(span/offsetStep) * offsetStep
			in.recOff[i] = rng.Intn(span/offsetStep) * offsetStep
		}
	}
	if w.maxOp(opBurst) > 0 {
		in.burstPl = make([]byte, burstPlay)
		rng.Read(in.burstPl)
		for v := range in.order {
			o := make([]bool, burstReqs)
			for i := 0; i < burstReqs/2; i++ {
				o[i] = true
			}
			rng.Shuffle(len(o), func(i, j int) { o[i], o[j] = o[j], o[i] })
			in.order[v] = o
		}
	}
	if w.loopDelay > 0 {
		in.stream = make([]byte, streamLen)
		rng.Read(in.stream)
		for i := range in.stream {
			if i%loopPeriod >= loopPlay {
				in.stream[i] = 0xFF // the gap the server must fill with µ-law silence
			}
		}
	}
	return in
}

// wireOp is one op as bytes on the wire: exactly the requests af sends
// for it (chunked at proto.ChunkBytes, replies suppressed on all but the
// last play chunk), with the offsets of their time fields so a rung can
// retarget them without re-encoding.
type wireOp struct {
	req     []byte
	timeAt  []int // offset of each timed request's Time field in req
	step    []int // frames each timed request starts past the op's start
	nreq    int
	replies int
}

// setTime points every request of the op at start.
func (o *wireOp) setTime(start uint32) {
	for i, at := range o.timeAt {
		binary.LittleEndian.PutUint32(o.req[at:], start+uint32(o.step[i]))
	}
}

// acFor is the id of the audio context a raw connection creates to stand
// for workload connection conn.
func acFor(conn int) uint32 { return uint32(conn + 1) }

// appendOp marshals op's requests (burst variant v) onto pw and describes
// them in o.
func appendOp(pw *proto.Writer, o *wireOp, w *workload, in *inputs, op opSpec, v int) error {
	timed := func(step int) {
		o.timeAt = append(o.timeAt, len(pw.Buf)+8) // request header, AC, then Time
		o.step = append(o.step, step)
	}
	play := func(data []byte, flags uint8, step int) error {
		timed(step)
		o.nreq++
		return proto.AppendPlaySamples(pw, proto.PlaySamplesReq{AC: acFor(op.conn), Flags: flags, Data: data})
	}
	fb := w.frameBytes()
	switch op.kind {
	case opGetTime:
		o.nreq++
		o.replies++
		return proto.AppendDeviceReq(pw, proto.OpGetTime, 0)
	case opPlay:
		data := in.payload[op.conn][:op.bytes]
		for off := 0; off < len(data); off += proto.ChunkBytes {
			n := min(proto.ChunkBytes, len(data)-off)
			flags := uint8(0)
			if off+n < len(data) {
				flags = proto.SampleFlagSuppressReply
			}
			if err := play(data[off:off+n], flags, off/fb); err != nil {
				return err
			}
		}
		o.replies++
	case opRecord:
		for off := 0; off < op.bytes; off += proto.ChunkBytes {
			n := min(proto.ChunkBytes, op.bytes-off)
			timed(off / fb)
			o.nreq++
			o.replies++
			err := proto.AppendRecordSamples(pw, proto.RecordSamplesReq{AC: acFor(op.conn), NBytes: uint32(n), Flags: proto.SampleFlagNoBlock})
			if err != nil {
				return err
			}
		}
	case opBurst:
		slot := 0
		for _, isPlay := range in.order[v] {
			o.replies++
			if !isPlay {
				o.nreq++
				if err := proto.AppendDeviceReq(pw, proto.OpGetTime, 0); err != nil {
					return err
				}
				continue
			}
			if err := play(in.burstPl, 0, slot*burstPlay); err != nil {
				return err
			}
			slot++
		}
	}
	return nil
}

// buildWireOp encodes op on its own.
func buildWireOp(w *workload, in *inputs, op opSpec, v int) (*wireOp, error) {
	pw := proto.Writer{Order: binary.LittleEndian}
	o := &wireOp{}
	err := appendOp(&pw, o, w, in, op, v)
	o.req = pw.Buf
	return o, err
}
