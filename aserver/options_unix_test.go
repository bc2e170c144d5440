//go:build unix

package aserver

import (
	"net"
	"syscall"
	"testing"

	"audiofile/af"
)

// TestOptionTCPDelay: the accepted TCP connection has TCP_NODELAY set by
// default and cleared when TCPDelay asks for Nagle — read back from the
// server's end of the socket.
func TestOptionTCPDelay(t *testing.T) {
	for _, delay := range []bool{false, true} {
		srv := optionServer(t, Options{TCPDelay: delay})
		l, err := srv.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nc, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c, err := af.NewConn(nc)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Sync(); err != nil { // the client is registered once it answers
			t.Fatal(err)
		}
		var accepted *net.TCPConn
		srv.Do(func() {
			for cl := range srv.clients {
				accepted = cl.conn.(*net.TCPConn)
			}
		})
		rc, err := accepted.SyscallConn()
		if err != nil {
			t.Fatal(err)
		}
		var nodelay int
		var serr error
		if err := rc.Control(func(fd uintptr) {
			nodelay, serr = syscall.GetsockoptInt(int(fd), syscall.IPPROTO_TCP, syscall.TCP_NODELAY)
		}); err != nil || serr != nil {
			t.Fatal(err, serr)
		}
		if got := nodelay == 0; got != delay {
			t.Errorf("TCPDelay %v: accepted connection has TCP_NODELAY=%d", delay, nodelay)
		}
	}
}
