package aserver

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"audiofile/internal/proto"
)

// The lazy writer: a connection keeps one resident goroutine, its reader,
// and has a writer only while output waits that no reader's run carries.

// serverGoroutines counts the goroutines running or created by this
// package's code, the caller's own excepted: the server's, for a test whose
// clients are bare sockets.
func serverGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n"))[1:] { // the first is the caller
		if bytes.Contains(g, []byte("audiofile/aserver.")) {
			count++
		}
	}
	return count
}

// settleGoroutines polls serverGoroutines until it reports want, for up to
// 10 s, and fails with the last count seen.
func settleGoroutines(t *testing.T, what string, want int) {
	t.Helper()
	n := serverGoroutines()
	for deadline := time.Now().Add(10 * time.Second); n != want; n = serverGoroutines() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d server goroutines, want %d", what, n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIdleConnsOneGoroutine holds the server to one goroutine per synced
// idle connection over 1,000 unix connections (bare sockets, so the
// clients have none). Then a property change is delivered to every
// connection, outside their runs, which starts a writer on each; once the
// events are out the count is back where it was, because each writer left
// with its queue empty.
func TestIdleConnsOneGoroutine(t *testing.T) {
	const conns = 1000
	srv, _ := batchTestServer(t)
	addr := listenSocket(t, srv, "unix")
	const base = 1 // the accept loop
	settleGoroutines(t, "listening", base)

	w := proto.Writer{Order: binary.LittleEndian}
	proto.AppendSelectEvents(&w, proto.SelectEventsReq{Device: 0, Mask: proto.MaskPropertyChange}) //nolint:errcheck
	proto.AppendDeviceReq(&w, proto.OpGetTime, 0)                                                  //nolint:errcheck
	syncReq := w.Buf
	ncs := make([]net.Conn, conns)
	reply := make([]byte, proto.EventBytes)
	for i := range ncs {
		nc, err := net.Dial("unix", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		ncs[i] = nc
		handshake(t, nc, nc)
		if _, err := nc.Write(syncReq); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(nc, reply[:proto.ReplyHeaderBytes]); err != nil || reply[0] != proto.MsgReply {
			t.Fatalf("conn %d: sync reply %x, %v", i, reply[:proto.ReplyHeaderBytes], err)
		}
	}
	settleGoroutines(t, "1,000 synced idle connections", base+conns)

	w.Buf = w.Buf[:0]
	proto.AppendChangeProperty(&w, proto.ChangePropertyReq{Device: 0, //nolint:errcheck
		Property: proto.AtomCOPYRIGHT, Type: proto.AtomSTRING, Format: 8, Data: []byte("af")})
	if _, err := ncs[0].Write(w.Buf); err != nil {
		t.Fatal(err)
	}
	for i, nc := range ncs {
		nc.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		if _, err := io.ReadFull(nc, reply); err != nil || reply[0] != proto.EventPropertyChange {
			t.Fatalf("conn %d: event %x, %v", i, reply, err)
		}
	}
	settleGoroutines(t, "after the event reached every connection", base+conns)
	if s := srv.Snapshot(); s.QueuedBytes != 0 || s.Evictions != 0 {
		t.Errorf("queued bytes %d, evictions %d; want 0 and 0", s.QueuedBytes, s.Evictions)
	}
}

// TestWriterExitRacesPush runs a DialPipe connection, which has no
// RawConn, so every byte it gets goes through a writer. One goroutine
// sends 16,384 events in bursts of one to seven, the pushes spaced by a
// gap that sweeps 0–775 ns, then idles until the burst has arrived: the
// last push of a burst races the writer's exit, and no later push comes
// to carry an event it left behind. Every event must arrive, in order,
// each burst without the next, and the queue must end at 0 bytes.
func TestWriterExitRacesPush(t *testing.T) {
	const events = 16384
	srv, _ := batchTestServer(t)
	nc := srv.DialPipe()
	defer nc.Close()
	handshake(t, nc, nc)
	var c *client
	waitFor(t, "registration", func() bool { c = soleClient(srv); return c != nil })

	var received, stranded atomic.Int64
	go func() {
		for sent := 0; sent < events; {
			for n := 1 + sent%7; n > 0 && sent < events; n-- {
				c.sendEvent(&proto.Event{Code: proto.EventPropertyChange, Value: uint32(sent)})
				sent++
				for t0 := time.Now(); time.Since(t0) < time.Duration(sent%32)*25*time.Nanosecond; {
				}
			}
			for deadline := time.Now().Add(5 * time.Second); received.Load() < int64(sent); runtime.Gosched() {
				if time.Now().After(deadline) {
					stranded.Store(int64(sent))
					nc.Close()
					return
				}
			}
		}
	}()
	ev := make([]byte, proto.EventBytes)
	for i := 0; i < events; i++ {
		if _, err := io.ReadFull(nc, ev); err != nil {
			t.Fatalf("event %d: %v; a burst ending at event %d stayed queued with no writer", i, err, stranded.Load()-1)
		}
		if got := binary.LittleEndian.Uint32(ev[20:]); ev[0] != proto.EventPropertyChange || got != uint32(i) {
			t.Fatalf("event %d: code %d value %d, want code %d value %d", i, ev[0], got, proto.EventPropertyChange, i)
		}
		received.Add(1)
	}
	waitFor(t, "the queue to empty", func() bool { queued, level := c.out.load(); return queued == 0 && level == 0 })
	if c.dead.Load() {
		t.Error("client dead after a clean run")
	}
}
