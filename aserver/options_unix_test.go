//go:build unix

package aserver

import (
	"net"
	"syscall"
	"testing"

	"audiofile/af"
)

// TestOptionTCPDelay: Go sets TCP_NODELAY on every TCP connection it
// dials or accepts, so no option or call asks for it and small requests
// and replies never wait behind Nagle's algorithm. Both ends of a session
// read the socket option back set.
func TestOptionTCPDelay(t *testing.T) {
	srv := optionServer(t, Options{})
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
	var accepted net.Conn
	srv.Do(func() {
		for cl := range srv.clients {
			accepted = cl.conn
		}
	})
	for _, end := range []struct {
		name string
		conn net.Conn
	}{{"accepted", accepted}, {"dialed", nc}} {
		rc, err := end.conn.(*net.TCPConn).SyscallConn()
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
		if nodelay == 0 {
			t.Errorf("%s connection has TCP_NODELAY=0", end.name)
		}
	}
}
