package aserver

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"

	"audiofile/internal/proto"
	"audiofile/internal/sampleconv"
	"audiofile/internal/vdev"
)

// Dispatch benchmarks: the full server-side request path (decode, engine,
// reply marshal, queue, writer), each request entering through
// dispatchHotGroup as a group of one, the way a reader goroutine serves a
// lone request. Each body is a fixture that returns one iteration, shared
// by the benchmark and its allocation gate (allocs_test.go): the pooled
// staging buffers mean the steady state must not allocate per request.

// benchOp times op, one iteration of a fixture, with bytes moved per
// iteration (0 for none).
func benchOp(b *testing.B, bytes int64, op func()) {
	if bytes != 0 {
		b.SetBytes(bytes)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// benchServer builds a one-codec server on a manual clock and a client
// over a pipe, via the same newClient constructor the accept path uses,
// with the real writer goroutines, which its sends start, draining the
// queue (its far end is discarded). Budgets are disabled so the eviction
// policy never trips mid-benchmark.
func benchServer(tb testing.TB) (*Server, *client, *vdev.ManualClock) {
	tb.Helper()
	clk := vdev.NewManualClock(8000)
	srv, err := New(Options{
		Devices:          []DeviceSpec{{Kind: "codec", Clock: clk}},
		Logf:             func(string, ...any) {},
		ClientQueueBytes: -1,
		ServerQueueBytes: -1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	p1, p2 := net.Pipe()
	c := newClient(srv, p1, binary.LittleEndian)
	go io.Copy(io.Discard, p2) //nolint:errcheck
	srv.Do(func() {
		d := srv.Device(0)
		c.acs[1] = &ac{id: 1, dev: d,
			enc: d.Cfg.Enc, channels: d.Cfg.Channels}
	})
	tb.Cleanup(func() {
		closeClient(c) // a writer flushes the tail, closes p1, settles accounting
		p2.Close()
		srv.Close()
	})
	return srv, c, clk
}

// drainOut waits until a writer has flushed every queued message (the
// byte accounting reaching zero means the buffers are back in the pool),
// keeping the benchmark's steady state bounded.
func drainOut(c *client) {
	for {
		if queued, _ := c.out.load(); queued == 0 {
			return
		}
		runtime.Gosched()
	}
}

// benchRun wraps one caller-owned request body as a run of one.
func benchRun(op, ext uint8, body []byte) []runFrame {
	return []runFrame{{op: op, ext: ext, body: body}}
}

// playBody marshals a PlaySamples request body (AC, Time, NBytes, data).
func playBody(ac, at uint32, data []byte) []byte {
	body := make([]byte, 12+len(data))
	binary.LittleEndian.PutUint32(body[0:], ac)
	binary.LittleEndian.PutUint32(body[4:], at)
	binary.LittleEndian.PutUint32(body[8:], uint32(len(data)))
	copy(body[12:], data)
	return body
}

// recordBody marshals a RecordSamples request body (AC, Time, NBytes).
func recordBody(ac, at, nbytes uint32) []byte {
	body := make([]byte, 12)
	binary.LittleEndian.PutUint32(body[0:], ac)
	binary.LittleEndian.PutUint32(body[4:], at)
	binary.LittleEndian.PutUint32(body[8:], nbytes)
	return body
}

// hotOp is one iteration of a hot-path fixture: run dispatched as a group
// and its reply drained.
func hotOp(srv *Server, c *client, run []runFrame) func() {
	return func() {
		srv.dispatchHotGroup(c, run)
		drainOut(c)
	}
}

// dispatchPlayMix replays the same 2048-frame µ-law region with mixing on
// every iteration: decode, Play (mix kernel), reply.
func dispatchPlayMix(tb testing.TB) func() {
	srv, c, clk := benchServer(tb)
	clk.Advance(4096)
	data := make([]byte, 2048)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	now := uint32(srv.Device(0).Time())
	return hotOp(srv, c, benchRun(proto.OpPlaySamples, 0, playBody(1, now+128, data)))
}

// dispatchRecord records an available 2048-frame window on every
// iteration: decode, Record (convert kernel into the reply message),
// reply.
func dispatchRecord(tb testing.TB) func() {
	srv, c, clk := benchServer(tb)
	clk.Advance(4096)
	srv.Sync()
	now := uint32(srv.Device(0).Time())
	return hotOp(srv, c, benchRun(proto.OpRecordSamples, proto.SampleFlagNoBlock, recordBody(1, now-2048, 2048)))
}

// dispatchRecordADPCM runs the compressed record path: capture lin16 into
// the reply message, compress it 2:1 in place, reply.
func dispatchRecordADPCM(tb testing.TB) func() {
	srv, c, clk := benchServer(tb)
	srv.Do(func() {
		c.acs[1].enc = sampleconv.ADPCM4
	})
	clk.Advance(4096)
	srv.Sync()
	now := uint32(srv.Device(0).Time())
	return hotOp(srv, c, benchRun(proto.OpRecordSamples, proto.SampleFlagNoBlock, recordBody(1, now-2048, 1024)))
}

// dispatchControl sends one SyncConnection through dispatch the way the
// reader does: the handler run to completion under ctl, the reply queued.
func dispatchControl(tb testing.TB) func() {
	_, c, _ := benchServer(tb)
	run := []runFrame{{op: proto.OpSyncConnection}}
	return func() {
		c.dispatch(run)
		c.endRun(-1)
		drainOut(c)
	}
}

func BenchmarkDispatchPlayMix(b *testing.B)     { benchOp(b, 2048, dispatchPlayMix(b)) }
func BenchmarkDispatchRecord(b *testing.B)      { benchOp(b, 2048, dispatchRecord(b)) }
func BenchmarkDispatchRecordADPCM(b *testing.B) { benchOp(b, 2048, dispatchRecordADPCM(b)) }
func BenchmarkDispatchControl(b *testing.B)     { benchOp(b, 0, dispatchControl(b)) }
