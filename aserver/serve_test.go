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
// the speculative read there before it waits again.

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
// drained on the callback's descriptor, none handed to the writer. Each
// burst costs the server three system calls: the read, the writev and the
// speculative read that meets EAGAIN. A read that meets the next burst
// instead saves one; the first wait and the EOF add one each.
func TestReaderServesInsideOneRead(t *testing.T) {
	const calls = 1000
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
			if c.syscalls > 3*calls+2 {
				t.Errorf("%d round trips took %d system calls, want at most 3 each (read, writev, EAGAIN read) and 2 more", calls, c.syscalls)
			}
			if s := srv.Snapshot(); s.EgressFallbacks != 0 {
				t.Errorf("egress fallbacks = %d, want 0", s.EgressFallbacks)
			}
		})
	}
}
