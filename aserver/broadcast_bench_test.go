package aserver

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"audiofile/internal/vdev"
)

// Broadcast fan-out benchmark: the encode-once contract. One pump cycle
// encodes each chunk once per wire format and enqueues the same pooled
// message on every subscriber, so the per-chunk cost must be sub-linear
// in listeners (one enqueue each, no copies) and the steady state must
// not allocate (allocs_test.go).

// nullConn is a no-op net.Conn: writes succeed instantly, so 10k real
// writer goroutines drain their queues without moving bytes anywhere.
type nullConn struct{}

func (nullConn) Read(b []byte) (int, error)       { select {} }
func (nullConn) Write(b []byte) (int, error)      { return len(b), nil }
func (nullConn) Close() error                     { return nil }
func (nullConn) LocalAddr() net.Addr              { return nullAddr{} }
func (nullConn) RemoteAddr() net.Addr             { return nullAddr{} }
func (nullConn) SetDeadline(time.Time) error      { return nil }
func (nullConn) SetReadDeadline(time.Time) error  { return nil }
func (nullConn) SetWriteDeadline(time.Time) error { return nil }

type nullAddr struct{}

func (nullAddr) Network() string { return "null" }
func (nullAddr) String() string  { return "null" }

// BenchmarkBroadcastFanout measures one chunk's pump cost with N
// subscribed listeners on one µ-law codec channel: TapMix encode (once),
// then N reference-counted enqueues drained by N real writer goroutines.
// ns/op is the full per-chunk cost; divide by the listener count for the
// per-listener cost, which must stay roughly flat from 1k to 10k.
func BenchmarkBroadcastFanout(b *testing.B) {
	for _, listeners := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("listeners=%d", listeners), func(b *testing.B) {
			benchOp(b, broadcastChunkFrames*int64(listeners), broadcastFanout(b, listeners))
		})
	}
}

// broadcastChunkFrames is one pump span: 32 ms at 8 kHz.
const broadcastChunkFrames = 256

// broadcastFanout subscribes listeners clients to one codec's broadcast
// and returns one pump: a chunk of device time pumped to every listener,
// with the queues fully drained (pooled messages back in the pool). At
// cleanup it requires the law that defines encode-once: every chunk was
// encoded exactly once (one device, one wire format), regardless of the
// listener count.
func broadcastFanout(tb testing.TB, listeners int) func() {
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
	tb.Cleanup(srv.Close)
	e := srv.engineByDev[0]
	d := srv.Device(0)

	clients := make([]*client, listeners)
	for i := range clients {
		c := newClient(srv, nullConn{}, binary.LittleEndian)
		a := &ac{id: 1, dev: d, devIndex: 0, enc: d.Cfg.Enc, channels: d.Cfg.Channels}
		c.acs[1] = a
		e.mu.Lock()
		if code := e.subscribeLocked(c, a); code != 0 {
			e.mu.Unlock()
			tb.Fatalf("subscribe %d: error code %d", i, code)
		}
		e.mu.Unlock()
		go c.writer()
		clients[i] = c
	}
	tb.Cleanup(func() {
		for _, c := range clients {
			close(c.closed)
		}
	})

	sm := &srv.sm
	pump := func() {
		clk.Advance(broadcastChunkFrames)
		e.mu.Lock()
		e.updateLocked()
		e.mu.Unlock()
		for sm.queuedBytes.Load() != 0 {
			runtime.Gosched()
		}
	}
	// Warm the pools and every writer's buffers: the first message through
	// a writer grows its reused slices.
	for i := 0; i < 4; i++ {
		pump()
	}
	chunks0 := e.m.bcastChunks.Load()
	encodes0 := e.m.bcastEncodes.Load()
	tb.Cleanup(func() {
		chunks := e.m.bcastChunks.Load() - chunks0
		encodes := e.m.bcastEncodes.Load() - encodes0
		if chunks == 0 || encodes != chunks {
			tb.Errorf("encodes = %d, chunks = %d; want equal and nonzero (encode-once)", encodes, chunks)
		}
		if subs := e.m.bcastSubs.Load(); subs != int64(listeners) {
			tb.Errorf("bcastSubs = %d, want %d (no listener evicted mid-bench)", subs, listeners)
		}
	})
	return pump
}
