package aserver

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"

	"audiofile/internal/proto"
)

// The serving callback: on a socket the reader frames, dispatches and
// drains each burst inside the RawConn.Read that waits for it, and makes
// the speculative read there before it waits again, unless on TCP the
// burst's read showed the socket empty and its replies went out whole.

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
// under the same readiness edge. The reader may wait only after a read has
// met EAGAIN: one that waits after a short read misses the FIN and holds
// the session open. Every reply, then EOF, must arrive within 2 s: for
// four GetTimes, and for four NoOps, which draw no reply, so that nothing
// but the FIN can end their session.
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
// drained on the callback's descriptor, none handed to the writer. On unix
// each burst costs the server three system calls: the read, the writev and
// the speculative read that meets EAGAIN. On TCP the read reports the
// socket left empty (TCP_INQ) and the writev goes out whole, so the
// speculative read is skipped: two. A read that meets the next burst
// instead saves one; the first wait and the EOF add one each. A wait that
// ends on stale readiness costs a read that meets EAGAIN (serve); those
// are counted apart, and a harvest race makes them rare: more than one
// per hundred round trips means the reader waits wrongly.
func TestReaderServesInsideOneRead(t *testing.T) {
	const calls = 1000
	perCall := map[string]struct {
		n     int
		calls string
	}{
		"unix": {3, "read, writev, EAGAIN read"},
		"tcp":  {2, "recvmsg, writev"},
	}
	for _, network := range socketNetworks {
		t.Run(network, func(t *testing.T) {
			want := perCall[network]
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
			if c.syscalls > want.n*calls+2 {
				t.Errorf("%d round trips took %d system calls, want at most %d each (%s) and 2 more", calls, c.syscalls, want.n, want.calls)
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

// TestReaderSkipHoldsPartialTail: on TCP the reader skips its speculative
// read with half a request held. One write carries a GetTime and half of
// the next; the first reply comes back while the tail pins one ingress
// buffer, the rest follows 5 ms later, and the second reply must arrive.
// The session costs at most six system calls: a first EAGAIN read, two
// reads and two writevs, and the read that meets EOF. Reading again after
// each reply would cost two more.
func TestReaderSkipHoldsPartialTail(t *testing.T) {
	srv, _ := batchTestServer(t)
	nc, br := dialSession(t, "tcp", listenSocket(t, srv, "tcp"))
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
}
