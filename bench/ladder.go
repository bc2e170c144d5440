package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"audiofile/internal/proto"
)

// The ladder pushes one cycle's ops through each layer in isolation: the
// sampleconv kernel alone, core.Device alone, then the same request bytes
// to the server over an in-process pipe, a unix socket, TCP loopback and
// (routed workload) the router. A rung is the sum over the cycle's ops of
// each op's median time at that layer, so a layer's self time is its rung
// minus the rung below, and the self times add up to the top rung.
type layer int

const (
	lKernel layer = iota
	lCore
	lPipe
	lUnix
	lTCP
	lRouted
	numLayers
)

var layerNames = [numLayers]string{"kernel", "core", "pipe", "unix", "tcp", "routed"}

// rungs holds the ladder's measurements in ns.
type rungs struct {
	samples [numLayers][][]uint32          // per layer and op of the cycle: every timed call
	byKind  [numLayers][numOpKinds]float64 // per layer, summed medians of each op kind
	encode  float64                        // proto: marshal one cycle's requests
	decode  float64                        // proto: parse one cycle's replies
	turns   []ladderTurn
	medians []ladderMedian
}

// total is layer l's rung: one whole cycle at that layer.
func (g *rungs) total(l layer) float64 {
	sum := 0.0
	for _, v := range g.byKind[l] {
		sum += v
	}
	return sum
}

// timerCost is the median cost of the two clock reads around a timed
// call, subtracted from every rung so a 30 ns kernel is not reported as
// 70 ns.
func timerCost(calls int) float64 {
	s := make([]uint32, calls)
	for i := range s {
		t0 := time.Now()
		s[i] = uint32(time.Since(t0))
	}
	return medianNs(s)
}

// cycleOps runs n untimed cycles.
func cycleOps(runner opRunner, ops []opSpec, n int) error {
	for c := 0; c < n; c++ {
		for _, op := range ops {
			if err := runner.run(op); err != nil {
				return fmt.Errorf("%s cycle %d: %w", opNames[op.kind], c, err)
			}
		}
		runner.state().endCycle()
	}
	return nil
}

// timeRung cycles runner calls times, timing every op, and adds the times
// to layer l's samples. A tenth as many untimed cycles come first, so
// buffers and pools exist before anything is timed.
func (g *rungs) timeRung(l layer, runner opRunner, ops []opSpec, calls int, epoch time.Time) error {
	if err := cycleOps(runner, ops, max(1, calls/10)); err != nil {
		return fmt.Errorf("ladder %s: %w", layerNames[l], err)
	}
	if g.samples[l] == nil {
		g.samples[l] = make([][]uint32, len(ops))
	}
	start := time.Since(epoch)
	for c := 0; c < calls; c++ {
		for i, op := range ops {
			t0 := time.Now()
			err := runner.run(op)
			dt := time.Since(t0)
			if err != nil {
				return fmt.Errorf("ladder %s: %s call %d: %w", layerNames[l], opNames[op.kind], c, err)
			}
			g.samples[l][i] = append(g.samples[l][i], uint32(dt))
		}
		runner.state().endCycle()
	}
	g.turns = append(g.turns, ladderTurn{layer: layerNames[l], start: int64(start), end: int64(time.Since(epoch)), calls: calls})
	return nil
}

// settle walks an advancing workload's clock past everything earlier
// cycles scheduled, so the next runner starts on a silent device, and
// returns the device time.
func (r *rig) settle() uint32 {
	if r.w.advance > 0 {
		for t := 0; t < 4*playLead; t += 512 {
			r.clk.Advance(512)
			r.srv.Sync()
		}
	}
	return uint32(r.clk.Ticks())
}

// dialLayer opens a raw connection to r's server the way layer l reaches it.
func (r *rig) dialLayer(l layer) (*rawConn, error) {
	switch l {
	case lPipe:
		return handshake(r.srv.DialPipe(), "")
	case lUnix:
		return dialRaw("unix", r.unixPath, "")
	case lTCP:
		return dialRaw("tcp", r.tcpAddr, "")
	}
	return dialRaw("tcp", r.routedAddr, routeKey)
}

// ladderRounds is how many turns each rung takes. The sandbox changes
// speed within seconds; a rung measured in one stretch while it did would
// not compare with its neighbours or with the traced cycles, so the traced
// run goes round: some windows of cycles, then one turn of every rung.
const ladderRounds = 4

// turn gives every rung below af one turn of calls cycles, on r's server
// for the wire rungs. One connection is active at a time; the workload's
// own are idle.
func (g *rungs) turn(r *rig, in *inputs, calls int, epoch time.Time) error {
	w := r.w
	if err := g.timeRung(lKernel, newKernelRunner(w, in), w.ops, calls, epoch); err != nil {
		return err
	}
	if err := g.timeRung(lCore, newCoreRunner(w, in), w.ops, calls, epoch); err != nil {
		return err
	}
	for _, l := range []layer{lPipe, lUnix, lTCP, lRouted} {
		if l == lRouted && !w.routed {
			continue
		}
		rc, err := r.dialLayer(l)
		if err != nil {
			return fmt.Errorf("ladder %s: %w", layerNames[l], err)
		}
		err = rc.createACs(w)
		if err == nil {
			var x *rawRunner
			if x, err = newRawRunner(r, in, rc, r.settle()); err == nil {
				err = g.timeRung(l, x, w.ops, calls, epoch)
			}
		}
		rc.close()
		if err != nil {
			return err
		}
	}
	return nil
}

// finish turns the samples of every turn into the rungs' medians, and
// times the codec.
func (g *rungs) finish(w *workload, in *inputs, calls int) error {
	overhead := timerCost(calls)
	for l, perOp := range g.samples {
		for i, samples := range perOp {
			op := w.ops[i]
			m := max(0, medianNs(samples)-overhead)
			g.byKind[l][op.kind] += m
			g.medians = append(g.medians, ladderMedian{layer: layerNames[l], op: opNames[op.kind], calls: len(samples), ns: m})
		}
	}
	return g.timeProto(w, in, calls, overhead)
}

// timeProto times marshalling one cycle's requests into a proto.Writer
// and parsing one cycle's replies out of a byte stream: the codec's part
// of the wire and af rungs.
func (g *rungs) timeProto(w *workload, in *inputs, calls int, overhead float64) error {
	pw := proto.Writer{Order: binary.LittleEndian}
	rw := proto.Writer{Order: binary.LittleEndian}
	var wo wireOp
	nreplies := 0
	encodeCycle := func() error {
		pw.Reset()
		wo = wireOp{timeAt: wo.timeAt[:0], step: wo.step[:0]}
		for _, op := range w.ops {
			if err := appendOp(&pw, &wo, w, in, op, 0); err != nil {
				return err
			}
		}
		return nil
	}
	if err := encodeCycle(); err != nil {
		return err
	}
	for _, op := range w.ops {
		var o wireOp
		if err := appendOp(&pw, &o, w, in, op, 0); err != nil {
			return err
		}
		for i := 0; i < o.replies; i++ {
			rep := proto.Reply{Seq: uint16(nreplies)}
			if op.kind == opRecord {
				rep.Extra = make([]byte, min(op.bytes, proto.ChunkBytes))
				rep.Aux = uint32(len(rep.Extra))
			}
			rep.Encode(&rw)
			nreplies++
		}
	}
	enc := make([]uint32, calls)
	dec := make([]uint32, calls)
	var msg proto.Message
	rd := bytes.NewReader(nil)
	for c := 0; c < calls; c++ {
		t0 := time.Now()
		err := encodeCycle()
		enc[c] = uint32(time.Since(t0))
		if err != nil {
			return err
		}
		rd.Reset(rw.Buf)
		t0 = time.Now()
		for i := 0; i < nreplies; i++ {
			if err := proto.ReadMessageInto(rd, binary.LittleEndian, &msg); err != nil {
				return err
			}
		}
		dec[c] = uint32(time.Since(t0))
	}
	g.encode = max(0, medianNs(enc)-overhead)
	g.decode = max(0, medianNs(dec)-overhead)
	return nil
}
