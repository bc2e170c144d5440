package aserver

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"audiofile/internal/proto"
)

// The serving callback: on a socket the reader frames, dispatches and
// drains each burst inside the RawConn.Read that waits for it, and makes
// the speculative read there before it waits again, unless the burst's
// read showed the socket empty (TCP_INQ on TCP, a short read on Unix) and
// its replies went out whole.

// socketNetworks are the transports whose reader serves inside its read.
var socketNetworks = []string{"unix", "tcp"}

// listenSocket serves srv on a fresh listener of network and returns the
// address to dial.
func listenSocket(t *testing.T, srv *Server, network string) string {
	t.Helper()
	addr := "127.0.0.1:0"
	if network == "unix" {
		addr = filepath.Join(t.TempDir(), "af")
	}
	ln, err := srv.Listen(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	return ln.Addr().String()
}

// dialSession opens a set-up little-endian session on addr.
func dialSession(t *testing.T, network, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	br := bufio.NewReader(nc)
	handshake(t, nc, br)
	return nc, br
}

// TestReaderSeesFINBehindLastRequest writes a burst and half-closes at
// once, so the FIN lands with the requests, often inside the same read and
// under the same readiness edge. A read that takes the burst need not show
// the FIN: the reader may skip the read that would meet it only once a
// whole write followed, and on Unix only the client's read of that write
// raises the edge that brings the FIN in. One that waits after a short
// read alone misses the FIN and holds the session open. Every reply, then
// EOF, must arrive within 2 s: for four GetTimes, and for four NoOps,
// which draw no reply, so that nothing but the FIN can end their session.
func TestReaderSeesFINBehindLastRequest(t *testing.T) {
	noOps := proto.Writer{Order: binary.LittleEndian}
	for i := 0; i < 4; i++ {
		proto.AppendEmptyReq(&noOps, proto.OpNoOperation, 0) //nolint:errcheck
	}
	cases := []struct {
		name    string
		req     []byte
		replies int
	}{
		{"GetTime", getTimeBurst(4, 0), 4},
		{"NoOp", noOps.Buf, 0},
	}
	const iterations = 300
	for _, network := range socketNetworks {
		t.Run(network, func(t *testing.T) {
			srv, _ := batchTestServer(t)
			addr := listenSocket(t, srv, network)
			for _, tc := range cases {
				for i := 0; i < iterations; i++ {
					nc, br := dialSession(t, network, addr)
					if _, err := nc.Write(tc.req); err != nil {
						t.Fatal(err)
					}
					if err := nc.(interface{ CloseWrite() error }).CloseWrite(); err != nil {
						t.Fatal(err)
					}
					nc.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
					got, err := io.ReadAll(br)
					if err != nil || len(got) != tc.replies*proto.ReplyHeaderBytes {
						t.Fatalf("%s, iteration %d: %d reply bytes then %v, want %d then EOF",
							tc.name, i, len(got), err, tc.replies*proto.ReplyHeaderBytes)
					}
					nc.Close()
				}
			}
		})
	}
}

// TestReaderServesInsideOneRead makes a thousand GetTime round trips and
// counts the reader's RawConn.Read calls: the whole session is served
// inside one (two at most, should a wait be cut short), every reply
// drained on the callback's descriptor, none handed to the writer. Each
// burst costs the server two system calls, the read and the writev: the
// read shows the socket left empty (TCP_INQ on TCP, a short read on Unix)
// and the writev goes out whole, so the speculative read that would meet
// EAGAIN is skipped. A read that meets the next burst instead saves one;
// the first wait and the EOF add one each. A wait that ends on stale
// readiness costs a read that meets EAGAIN (serve); those are counted
// apart, and a harvest race makes them rare: more than one per hundred
// round trips means the reader waits wrongly.
func TestReaderServesInsideOneRead(t *testing.T) {
	const calls = 1000
	const perCall = 2 // the read (recvmsg on TCP) and the writev
	for _, network := range socketNetworks {
		t.Run(network, func(t *testing.T) {
			srv, _ := batchTestServer(t)
			nc, br := dialSession(t, network, listenSocket(t, srv, network))
			var c *client // registered just after the setup reply goes out
			waitFor(t, "registration", func() bool { c = soleClient(srv); return c != nil })
			req, reply := getTimeBurst(1, 0), make([]byte, proto.ReplyHeaderBytes)
			for i := 0; i < calls; i++ {
				if _, err := nc.Write(req); err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadFull(br, reply); err != nil {
					t.Fatal(err)
				}
			}
			nc.Close()
			// The reader counts its last call before it unregisters.
			waitFor(t, "the session to end", func() bool { return srv.Snapshot().Disconnects == 1 })
			if c.rawReads > 2 {
				t.Errorf("%d round trips took %d RawConn.Read calls, want at most 2", calls, c.rawReads)
			}
			if c.syscalls > perCall*calls+2 {
				t.Errorf("%d round trips took %d system calls, want at most %d each and 2 more", calls, c.syscalls, perCall)
			}
			if c.staleWakes > calls/100 {
				t.Errorf("%d round trips took %d reads after stale wakes, want at most %d", calls, c.staleWakes, calls/100)
			}
			if s := srv.Snapshot(); s.EgressFallbacks != 0 {
				t.Errorf("egress fallbacks = %d, want 0", s.EgressFallbacks)
			}
		})
	}
}

// TestReaderSeesRSTBehindLastRequest is the FIN test's twin for an
// abortive close on TCP: a burst, then a reset (SO_LINGER 0), often inside
// the same read. A read that takes the burst reports the socket empty
// (TCP_INQ) with the reset already behind it, so the reader must not skip
// its speculative read on that alone: the GetTimes' reply write fails on
// the reset, and the NoOps draw no write at all. Either way the session
// must unregister within 2 s.
func TestReaderSeesRSTBehindLastRequest(t *testing.T) {
	noOps := proto.Writer{Order: binary.LittleEndian}
	for i := 0; i < 4; i++ {
		proto.AppendEmptyReq(&noOps, proto.OpNoOperation, 0) //nolint:errcheck
	}
	srv, _ := batchTestServer(t)
	addr := listenSocket(t, srv, "tcp")
	const iterations = 200
	for _, tc := range []struct {
		name string
		req  []byte
	}{{"GetTime", getTimeBurst(4, 0)}, {"NoOp", noOps.Buf}} {
		for i := 0; i < iterations; i++ {
			before := srv.Snapshot().Disconnects
			nc, _ := dialSession(t, "tcp", addr)
			if _, err := nc.Write(tc.req); err != nil {
				t.Fatal(err)
			}
			nc.(*net.TCPConn).SetLinger(0) //nolint:errcheck
			nc.Close()
			for deadline := time.Now().Add(2 * time.Second); srv.Snapshot().Disconnects == before; time.Sleep(200 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s, iteration %d: the session outlived its reset by 2 s", tc.name, i)
				}
			}
		}
	}
}

// TestReaderSkipHoldsPartialTail: the reader skips its speculative read
// with half a request held. One write carries a GetTime and half of the
// next; the first reply comes back while the tail pins one ingress buffer,
// the rest follows 5 ms later, and the second reply must arrive. The
// session costs at most six system calls: a first EAGAIN read, two reads
// and two writevs, and the read that meets EOF. Reading again after each
// reply would cost two more.
func TestReaderSkipHoldsPartialTail(t *testing.T) {
	for _, network := range socketNetworks {
		t.Run(network, func(t *testing.T) {
			srv, _ := batchTestServer(t)
			nc, br := dialSession(t, network, listenSocket(t, srv, network))
			var c *client
			waitFor(t, "registration", func() bool { c = soleClient(srv); return c != nil })
			burst, reply := getTimeBurst(2, 0), make([]byte, proto.ReplyHeaderBytes)
			cut := len(burst) * 3 / 4
			nc.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
			for i, part := range [][]byte{burst[:cut], burst[cut:]} {
				if i == 1 {
					waitFor(t, "the partial tail to pin one buffer", func() bool { return lent(srv) == proto.IngressBytes })
					time.Sleep(5 * time.Millisecond)
				}
				if _, err := nc.Write(part); err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadFull(br, reply); err != nil {
					t.Fatalf("reply %d: %v", i+1, err)
				}
			}
			nc.Close()
			waitFor(t, "the session to end", func() bool { return srv.Snapshot().Disconnects == 1 })
			if c.syscalls > 6 {
				t.Errorf("the session took %d system calls, want at most 6", c.syscalls)
			}
		})
	}
}

// TestReaderHalfCloseRepliesUnread pins what the Unix skip changes. A
// client writes a GetTime burst and half-closes at once, so the FIN often
// lands before the reader's wake, behind bytes a short read takes without
// showing it. The session then waits for the client: its read of the
// replies raises the write-space edge that brings the FIN in, and its
// close ends the session. Read 50 ms late, every reply and then EOF must
// arrive within 2 s and the session unregister; closed unread, the session
// must unregister within 2 s. Both at one P, where the FIN always lands
// first, and at two.
func TestReaderHalfCloseRepliesUnread(t *testing.T) {
	const replies, iterations = 4, 10
	for _, procs := range []int{1, 2} {
		for _, tc := range []struct {
			name string
			read bool
		}{{"read late", true}, {"close unread", false}} {
			t.Run(fmt.Sprintf("procs%d/%s", procs, tc.name), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				srv, _ := batchTestServer(t)
				addr := listenSocket(t, srv, "unix")
				for i := 0; i < iterations; i++ {
					before := srv.Snapshot().Disconnects
					nc, br := dialSession(t, "unix", addr)
					deadline := time.Now().Add(2 * time.Second)
					if _, err := nc.Write(getTimeBurst(replies, 0)); err != nil {
						t.Fatal(err)
					}
					if err := nc.(*net.UnixConn).CloseWrite(); err != nil {
						t.Fatal(err)
					}
					if tc.read {
						time.Sleep(50 * time.Millisecond)
						nc.SetReadDeadline(deadline) //nolint:errcheck
						if got, err := io.ReadAll(br); err != nil || len(got) != replies*proto.ReplyHeaderBytes {
							t.Fatalf("iteration %d: %d reply bytes then %v, want %d then EOF", i, len(got), err, replies*proto.ReplyHeaderBytes)
						}
					}
					nc.Close()
					for srv.Snapshot().Disconnects == before {
						if time.Now().After(deadline) {
							t.Fatalf("iteration %d: the session outlived its half-close by 2 s", i)
						}
						time.Sleep(200 * time.Microsecond)
					}
				}
			})
		}
	}
}
