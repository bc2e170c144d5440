package af

// Edge cases of the reply wait (Conn.exchange) over real sockets, against
// a scripted server: a goroutine that speaks the protocol a request at a
// time, so each test decides exactly what reaches the client's socket and
// when — relative to the RawConn.Read that resets read readiness, writes
// the request and waits.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"audiofile/internal/proto"
)

// scriptNetworks are the transports a scripted exchange runs on: both take
// the RawConn path.
var scriptNetworks = []string{"unix", "tcp"}

// session is the server's end of one scripted connection, set up.
type session struct {
	conn net.Conn
	seq  uint16 // requests read so far: the sequence number of the last
}

// request reads the next request header and body.
func (s *session) request() (op, ext uint8, body []byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(s.conn, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	body = make([]byte, int(binary.LittleEndian.Uint16(hdr[2:]))*4-4)
	if _, err = io.ReadFull(s.conn, body); err != nil {
		return 0, 0, nil, err
	}
	s.seq++
	return hdr[0], hdr[1], body, nil
}

// reply encodes a reply to the last request read.
func (s *session) reply(time uint32, extra []byte) []byte {
	return (&proto.Reply{Seq: s.seq, Time: time, Aux: uint32(len(extra)), Extra: extra}).Append(nil, binary.LittleEndian)
}

// serve answers requests as afd would, for what the tests send: the
// requests that draw a reply get one stamped with time (a record's filled
// with its byte count), everything else is taken silently. It returns the
// first read error, io.EOF when the client hangs up.
func (s *session) serve(time uint32) error {
	for {
		op, ext, body, err := s.request()
		if err != nil {
			return err
		}
		var msg []byte
		switch op {
		case proto.OpGetTime, proto.OpSyncConnection, proto.OpSubscribe:
			msg = s.reply(time, nil)
		case proto.OpPlaySamples:
			if ext&proto.SampleFlagSuppressReply == 0 {
				msg = s.reply(time, nil)
			}
		case proto.OpRecordSamples:
			msg = s.reply(time, make([]byte, binary.LittleEndian.Uint32(body[8:])))
		}
		if msg != nil {
			if _, err := s.conn.Write(msg); err != nil {
				return err
			}
		}
	}
}

// scriptServer listens on network and runs script on each connection it
// accepts, after answering its setup with one µ-law codec. It returns the
// address to dial; the server stops with the test.
func scriptServer(t *testing.T, network string, script func(*session)) string {
	t.Helper()
	addr := "127.0.0.1:0"
	if network == "unix" {
		addr = filepath.Join(t.TempDir(), "AFsock")
	}
	addr, _ = listenScript(t, network, addr, script)
	return addr
}

// listenScript is scriptServer at a chosen address. stop closes the
// listener and every connection it accepted, as a server going down does.
func listenScript(t *testing.T, network, addr string, script func(*session)) (bound string, stop func()) {
	t.Helper()
	ln, err := net.Listen(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	stop = func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, nc := range conns {
			nc.Close()
		}
	}
	t.Cleanup(stop)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
			go func() {
				defer nc.Close()
				if _, _, err := proto.ReadSetupRequest(nc); err != nil {
					return
				}
				rep := proto.SetupReply{Success: true, Major: proto.ProtocolMajor, Minor: proto.ProtocolMinor, Vendor: "script",
					Devices: []proto.DeviceDesc{{Type: proto.DevCodec, PlaySampleFreq: 8000, PlayNchannels: 1,
						PlayNSamplesBuf: 32000, RecSampleFreq: 8000, RecNchannels: 1, RecNSamplesBuf: 32000, Name: "codec0"}}}
				if rep.Send(nc, binary.LittleEndian) != nil {
					return
				}
				script(&session{conn: nc})
			}()
		}
	}()
	return ln.Addr().String(), stop
}

// dialScript opens a Conn on a scripted server; setSock, if set, adjusts
// the client's socket before the handshake.
func dialScript(t *testing.T, network, addr string, setSock func(net.Conn)) *Conn {
	t.Helper()
	nc, err := net.Dial(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	if setSock != nil {
		setSock(nc)
	}
	c, err := NewConn(nc)
	if err != nil {
		t.Fatal(err)
	}
	if c.raw == nil {
		t.Fatalf("%s Conn has no RawConn: the exchange is not under test", network)
	}
	c.SetIOErrorHandler(func(*Conn, error) {})
	// Closing the socket first wakes a call that within gave up on, which
	// holds the Conn's lock until it returns.
	t.Cleanup(func() {
		nc.Close()
		c.Close()
	})
	return c
}

// within runs f and fails the test if it does not return inside d: a hung
// reply wait shows as a failure, not as the test binary's timeout.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// TestExchangeReplyThenClose: the server writes a reply and closes the
// connection in one go — with a typed goodbye between the two, or without
// one. The readiness of the close arrived before the next call's
// RawConn.Read reset it; that call's own write must reveal the dead peer
// (EPIPE on unix, the RST that wakes the wait on TCP), never wait forever.
func TestExchangeReplyThenClose(t *testing.T) {
	for _, network := range scriptNetworks {
		for _, goodbye := range []bool{false, true} {
			name := network
			if goodbye {
				name += "/goodbye"
			}
			t.Run(name, func(t *testing.T) {
				replied := make(chan struct{})
				addr := scriptServer(t, network, func(s *session) {
					if _, _, _, err := s.request(); err != nil {
						return
					}
					msg := s.reply(7, nil)
					if goodbye {
						msg = (&proto.ErrorMsg{Code: proto.ErrOverload, Seq: s.seq}).Append(msg, binary.LittleEndian)
					}
					s.conn.Write(msg) //nolint:errcheck
					s.conn.Close()
					close(replied)
				})
				c := dialScript(t, network, addr, nil)
				if now, err := c.GetTime(0); err != nil || now != 7 {
					t.Fatalf("GetTime = %d, %v", now, err)
				}
				<-replied
				time.Sleep(10 * time.Millisecond) // the FIN has landed
				var err error
				within(t, time.Second, "GetTime on a closed peer", func() { _, err = c.GetTime(0) })
				var pe *ProtoError
				if err == nil || errors.As(err, &pe) {
					t.Fatalf("GetTime on a closed peer = %v, want a transport error", err)
				}
				var sce *ServerClosedError
				if goodbye != errors.As(err, &sce) {
					t.Fatalf("goodbye %v: error %v", goodbye, err)
				}
			})
		}
	}
}

// TestExchangeEventBetweenCalls: an event lands on the socket after one
// call has read its reply and before the next call's RawConn.Read resets
// readiness, so its edge is gone. The next call's reply brings a new edge,
// and the read that follows takes both: the event is queued and the reply
// returned.
func TestExchangeEventBetweenCalls(t *testing.T) {
	for _, network := range scriptNetworks {
		t.Run(network, func(t *testing.T) {
			push, pushed := make(chan struct{}), make(chan struct{})
			addr := scriptServer(t, network, func(s *session) {
				if _, _, _, err := s.request(); err != nil {
					return
				}
				s.conn.Write(s.reply(1, nil)) //nolint:errcheck
				<-push
				ev := (&proto.Event{Code: proto.EventPhoneRing, Seq: s.seq, Time: 5}).Append(nil, binary.LittleEndian)
				s.conn.Write(ev) //nolint:errcheck
				close(pushed)
				s.serve(2) //nolint:errcheck
			})
			c := dialScript(t, network, addr, nil)
			if now, err := c.GetTime(0); err != nil || now != 1 {
				t.Fatalf("first GetTime = %d, %v", now, err)
			}
			close(push)
			<-pushed
			time.Sleep(10 * time.Millisecond) // the event has landed
			var now ATime
			var err error
			within(t, time.Second, "GetTime behind an unread event", func() { now, err = c.GetTime(0) })
			if err != nil || now != 2 {
				t.Fatalf("second GetTime = %d, %v", now, err)
			}
			if n, _ := c.EventsQueued(QueuedAlready); n != 1 {
				t.Fatalf("%d events queued, want 1", n)
			}
			if ev, _ := c.NextEvent(); ev.Code != EventPhoneRing || ev.Time != 5 {
				t.Fatalf("event = %+v", ev)
			}
		})
	}
}

// TestExchangePartialWrite plays 1 MiB from a client socket whose send
// buffer is 4 KiB, to a server that waits before it reads: the kernel
// cannot take the exchange's writev whole, so the write waits for room
// inside the read callback, and the reply is read after. The server must
// see every byte, in order.
func TestExchangePartialWrite(t *testing.T) {
	const size = 1 << 20
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7)
	}
	for _, network := range scriptNetworks {
		t.Run(network, func(t *testing.T) {
			got := make(chan []byte, 1)
			addr := scriptServer(t, network, func(s *session) {
				time.Sleep(20 * time.Millisecond) // let the client's writev meet a full buffer
				var samples []byte
				for len(samples) < size {
					op, ext, body, err := s.request()
					if err != nil {
						t.Error(err)
						return
					}
					if op != proto.OpPlaySamples {
						continue // the CreateAC ahead of the play
					}
					n := int(binary.LittleEndian.Uint32(body[8:]))
					samples = append(samples, body[12:12+n]...)
					if ext&proto.SampleFlagSuppressReply == 0 {
						s.conn.Write(s.reply(9, nil)) //nolint:errcheck
					}
				}
				got <- samples
				s.serve(9) //nolint:errcheck
			})
			c := dialScript(t, network, addr, func(nc net.Conn) {
				if err := nc.(interface{ SetWriteBuffer(int) error }).SetWriteBuffer(4096); err != nil {
					t.Fatal(err)
				}
			})
			if sndbuf := sendBuffer(t, c.conn); sndbuf >= size/4 {
				t.Fatalf("send buffer %d: a 1 MiB writev could fit", sndbuf)
			}
			ac, err := c.CreateAC(0, 0, ACAttributes{})
			if err != nil {
				t.Fatal(err)
			}
			var now ATime
			within(t, 5*time.Second, "a 1 MiB play", func() { now, err = ac.PlaySamples(0, data) })
			if err != nil || now != 9 {
				t.Fatalf("PlaySamples = %d, %v", now, err)
			}
			if samples := <-got; string(samples) != string(data) {
				t.Fatal("the server received different samples")
			}
			if err := c.Sync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func sendBuffer(t *testing.T, nc net.Conn) int {
	t.Helper()
	raw, err := nc.(syscall.Conn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var n int
	var serr error
	if err := raw.Control(func(fd uintptr) {
		n, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF)
	}); err != nil || serr != nil {
		t.Fatal(err, serr)
	}
	return n
}

// TestExchangeReconnectRebinds restarts the scripted server under a live
// Conn: the transparent retry runs on the new socket's RawConn, with the
// old ingress state gone.
func TestExchangeReconnectRebinds(t *testing.T) {
	for _, network := range scriptNetworks {
		t.Run(network, func(t *testing.T) {
			addr := "127.0.0.1:0"
			if network == "unix" {
				addr = filepath.Join(t.TempDir(), "AFsock")
			}
			addr, stop := listenScript(t, network, addr, func(s *session) { s.serve(1) }) //nolint:errcheck
			c := dialScript(t, network, addr, nil)
			if err := c.SetReconnect(ReconnectOptions{
				Redial:  func() (net.Conn, error) { return net.Dial(network, addr) },
				Backoff: time.Millisecond,
			}); err != nil {
				t.Fatal(err)
			}
			if now, err := c.GetTime(0); err != nil || now != 1 {
				t.Fatalf("GetTime = %d, %v", now, err)
			}
			oldConn, oldRaw := c.conn, c.raw
			stop()
			listenScript(t, network, addr, func(s *session) { s.serve(2) }) //nolint:errcheck
			if now, err := c.GetTime(0); err != nil || now != 2 {
				t.Fatalf("GetTime across the restart = %d, %v", now, err)
			}
			if c.conn == oldConn || c.raw == nil || c.raw == oldRaw {
				t.Fatal("the Conn still reads through the old socket")
			}
			if c.in.buf != nil || c.in.err != nil {
				t.Fatalf("ingress after the round trip: buf %v, err %v", c.in.buf != nil, c.in.err)
			}
		})
	}
}

// TestExchangeSubscriberReadsFirst fills a subscriber's socket with
// pushed chunks until the server can write no more, then makes a round
// trip. The reply queues behind chunks that arrived before the exchange
// reset readiness and cannot arrive until the client reads, so a wait
// with no read first would never wake. That holds for the round trip that
// ends the subscription too — an Unsubscribe, or the Sync after a Free —
// whose chunks were pushed before the server saw the teardown: a Conn
// that has subscribed on its socket reads as soon as its request is
// written.
func TestExchangeSubscriberReadsFirst(t *testing.T) {
	calls := []struct {
		name string
		call func(*AC, *Subscription) error
	}{
		{"GetTime", func(ac *AC, sub *Subscription) error {
			if now, err := ac.conn.GetTime(0); err != nil || now != 3 {
				return fmt.Errorf("GetTime = %d, %v", now, err)
			}
			if ch, ok, err := sub.TryNext(); !ok || err != nil || len(ch.Data) != 4096 {
				return fmt.Errorf("TryNext = %d bytes, %v, %v", len(ch.Data), ok, err)
			}
			return nil
		}},
		{"Unsubscribe", func(ac *AC, sub *Subscription) error { return sub.Unsubscribe() }},
		{"Free+Sync", func(ac *AC, sub *Subscription) error {
			if err := ac.Free(); err != nil {
				return err
			}
			return ac.conn.Sync()
		}},
	}
	for _, network := range scriptNetworks {
		for _, tc := range calls {
			t.Run(network+"/"+tc.name, func(t *testing.T) {
				full := make(chan struct{})
				addr := scriptServer(t, network, func(s *session) {
					for {
						op, _, _, err := s.request()
						if err != nil {
							return
						}
						if op == proto.OpSubscribe {
							break
						}
					}
					s.conn.Write((&proto.Reply{Seq: s.seq, Aux: 1}).Append(nil, binary.LittleEndian)) //nolint:errcheck
					chunk := make([]byte, proto.BroadcastHeaderBytes+4096)
					proto.PutBroadcastHeader(binary.LittleEndian, chunk, &proto.BroadcastData{Channel: 1}, 4096)
					var rest []byte
					for rest == nil {
						s.conn.SetWriteDeadline(time.Now().Add(50 * time.Millisecond)) //nolint:errcheck
						if n, err := s.conn.Write(chunk); err != nil {
							rest = chunk[n:] // the socket is full; finish this chunk later
						}
					}
					s.conn.SetWriteDeadline(time.Time{}) //nolint:errcheck
					close(full)
					for { // up to the request that draws a reply; a FreeAC draws none
						op, _, _, err := s.request()
						if err != nil {
							return
						}
						if op != proto.OpFreeAC {
							break
						}
					}
					s.conn.Write(append(rest, s.reply(3, nil)...)) //nolint:errcheck
					s.serve(3)                                     //nolint:errcheck
				})
				c := dialScript(t, network, addr, nil)
				ac, err := c.CreateAC(0, 0, ACAttributes{})
				if err != nil {
					t.Fatal(err)
				}
				sub, _, err := ac.Subscribe()
				if err != nil {
					t.Fatal(err)
				}
				<-full
				within(t, 2*time.Second, tc.name+" behind a full socket", func() { err = tc.call(ac, sub) })
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestExchangeSyscallsPerRoundTrip counts a round trip's I/O system calls
// on the client's own thread (/proc/thread-self/io, where syscr counts
// every read(2), one that finds EAGAIN included, and syscw every write(2)
// and writev(2)): a GetTime is one write and one read.
func TestExchangeSyscallsPerRoundTrip(t *testing.T) {
	for _, network := range scriptNetworks {
		t.Run(network, func(t *testing.T) {
			addr := scriptServer(t, network, func(s *session) { s.serve(1) }) //nolint:errcheck
			c := dialScript(t, network, addr, nil)
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			const calls = 1000
			reads, writes := threadIO(t)
			for i := 0; i < calls; i++ {
				if _, err := c.GetTime(0); err != nil {
					t.Fatal(err)
				}
			}
			r, w := threadIO(t)
			perRead, perWrite := float64(r-reads)/calls, float64(w-writes)/calls
			if perRead > 1.01 || perWrite > 1.01 {
				t.Fatalf("a round trip costs %.3f reads and %.3f writes, want 1 and 1", perRead, perWrite)
			}
		})
	}
}

// threadIO returns the calling thread's read and write system call counts.
func threadIO(t *testing.T) (syscr, syscw int) {
	t.Helper()
	b, err := os.ReadFile("/proc/thread-self/io")
	if err != nil {
		t.Skipf("no per-thread I/O counters: %v", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		name, v, _ := strings.Cut(line, ": ")
		n, _ := strconv.Atoi(v)
		switch name {
		case "syscr":
			syscr = n
		case "syscw":
			syscw = n
		}
	}
	return syscr, syscw
}

// TestListExtensionsShortReply: a ListExtensions reply whose name runs
// past the reply's end, from an unaligned position, is an error, returned
// in time.
func TestListExtensionsShortReply(t *testing.T) {
	addr := scriptServer(t, "unix", func(s *session) {
		if _, _, _, err := s.request(); err != nil {
			return
		}
		extra := []byte{5, 'a', 'b', 'c'}
		rep := proto.Reply{Data: 1, Seq: s.seq, Aux: uint32(len(extra)), Extra: extra}
		s.conn.Write(rep.Append(nil, binary.LittleEndian)) //nolint:errcheck
		s.serve(0)                                         //nolint:errcheck
	})
	nc, err := net.Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewConn(nc)
	if err != nil {
		t.Fatal(err)
	}
	// Not dialScript's cleanup: a call that never returns holds the Conn's
	// lock, and Close would wait on it.
	var names []string
	within(t, 2*time.Second, "ListExtensions on a short reply", func() { names, err = c.ListExtensions() })
	c.Close()
	if err == nil {
		t.Fatalf("ListExtensions on a short reply = %q, want an error", names)
	}
}

// hostileCount is the count a corrupt or hostile list reply claims.
const hostileCount = 1<<32 - 1

// listHostile answers the client's first request with a reply that
// claims hostileCount entries in an 8-byte body, runs list against it,
// and fails unless list returns an error in time, with at most two
// entries, having allocated less than 1 MB.
func listHostile(t *testing.T, what string, list func(*Conn) (int, error)) {
	t.Helper()
	addr := scriptServer(t, "unix", func(s *session) {
		if _, _, _, err := s.request(); err != nil {
			return
		}
		rep := proto.Reply{Seq: s.seq, Aux: hostileCount, Extra: make([]byte, 8)}
		s.conn.Write(rep.Append(nil, binary.LittleEndian)) //nolint:errcheck
		s.serve(0)                                         //nolint:errcheck
	})
	c := dialScript(t, "unix", addr, nil)
	var before, after runtime.MemStats
	var n int
	var err error
	runtime.ReadMemStats(&before)
	within(t, 2*time.Second, what, func() { n, err = list(c) })
	runtime.ReadMemStats(&after)
	if err == nil || n > 2 {
		t.Errorf("%s = %d entries, %v; want an error and at most 2", what, n, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("%s allocated %d bytes for an 8-byte body", what, grew)
	}
}

// TestListHostsHostileCount: a ListHosts reply whose count its body
// cannot hold is an error, not a reservation of that many entries.
func TestListHostsHostileCount(t *testing.T) {
	listHostile(t, "ListHosts", func(c *Conn) (int, error) {
		_, hosts, err := c.ListHosts()
		return len(hosts), err
	})
}

// TestListPropertiesHostileCount: the same for ListProperties.
func TestListPropertiesHostileCount(t *testing.T) {
	listHostile(t, "ListProperties", func(c *Conn) (int, error) {
		atoms, err := c.ListProperties(0)
		return len(atoms), err
	})
}
