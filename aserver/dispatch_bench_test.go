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
// lone request. These are the allocation gates for the pooled staging
// buffers — the steady state must not allocate per request.

// benchServer builds a one-codec server on a manual clock and a client
// over a pipe, via the same newClient constructor the accept path uses,
// with the real writer goroutine draining the queue (its far end is
// discarded). Budgets are disabled so the eviction policy never trips
// mid-benchmark.
func benchServer(b testing.TB) (*Server, *client, *vdev.ManualClock, func()) {
	b.Helper()
	clk := vdev.NewManualClock(8000)
	srv, err := New(Options{
		Devices:          []DeviceSpec{{Kind: "codec", Clock: clk}},
		Logf:             func(string, ...any) {},
		ClientQueueBytes: -1,
		ServerQueueBytes: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	p1, p2 := net.Pipe()
	c := newClient(srv, p1, binary.LittleEndian)
	go c.writer()
	go io.Copy(io.Discard, p2) //nolint:errcheck
	srv.Do(func() {
		d := srv.Device(0)
		c.acs[1] = &ac{id: 1, dev: d, devIndex: 0,
			enc: d.Cfg.Enc, channels: d.Cfg.Channels}
	})
	cleanup := func() {
		close(c.closed) // writer flushes the tail, closes p1, settles accounting
		p2.Close()
		srv.Close()
	}
	return srv, c, clk, cleanup
}

// drainOut waits until the writer has flushed every queued message (the
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

// BenchmarkDispatchPlayMix replays the same 2048-frame µ-law region with
// mixing on every iteration: decode, Play (mix kernel), reply.
func BenchmarkDispatchPlayMix(b *testing.B) {
	srv, c, clk, cleanup := benchServer(b)
	defer cleanup()
	clk.Advance(4096)
	data := make([]byte, 2048)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	srv.Do(func() {
		now := uint32(srv.Device(0).Time())
		run := benchRun(proto.OpPlaySamples, 0, playBody(1, now+128, data))
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv.dispatchHotGroup(c, run)
			drainOut(c)
		}
	})
}

// BenchmarkDispatchRecord records an available 2048-frame window on every
// iteration: decode, Record (convert kernel into pooled staging), reply
// with the sample payload.
func BenchmarkDispatchRecord(b *testing.B) {
	srv, c, clk, cleanup := benchServer(b)
	defer cleanup()
	clk.Advance(4096)
	srv.Sync()
	srv.Do(func() {
		now := uint32(srv.Device(0).Time())
		run := benchRun(proto.OpRecordSamples, proto.SampleFlagNoBlock, recordBody(1, now-2048, 2048))
		b.SetBytes(2048)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv.dispatchHotGroup(c, run)
			drainOut(c)
		}
	})
}

// BenchmarkDispatchRecordADPCM runs the compressed record path: capture
// lin16 into pooled staging, compress 2:1, reply.
func BenchmarkDispatchRecordADPCM(b *testing.B) {
	srv, c, clk, cleanup := benchServer(b)
	defer cleanup()
	srv.Do(func() {
		a := c.acs[1]
		a.enc = sampleconv.ADPCM4
		a.recCoder = &sampleconv.ADPCMCoder{}
	})
	clk.Advance(4096)
	srv.Sync()
	srv.Do(func() {
		now := uint32(srv.Device(0).Time())
		run := benchRun(proto.OpRecordSamples, proto.SampleFlagNoBlock, recordBody(1, now-2048, 1024))
		b.SetBytes(2048)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv.dispatchHotGroup(c, run)
			drainOut(c)
		}
	})
}

// BenchmarkDispatchControl sends one SyncConnection through dispatch the
// way the reader does: the handler run to completion under ctl, the reply
// queued.
func BenchmarkDispatchControl(b *testing.B) {
	_, c, _, cleanup := benchServer(b)
	defer cleanup()
	run := []runFrame{{op: proto.OpSyncConnection}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.dispatch(run)
		c.endRun(-1)
		drainOut(c)
	}
}
