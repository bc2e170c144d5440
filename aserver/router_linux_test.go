package aserver

import (
	"net"
	"syscall"
	"testing"
	"time"

	"audiofile/af"
)

// stuckBackend is a loopback address whose accept queue is full: Linux
// drops the SYNs, so a dial hangs in retransmits until its timeout.
func stuckBackend(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil { // room for one
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := (&net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: sa.(*syscall.SockaddrInet4).Port}).String()
	for i := 0; i < 2; i++ {
		if c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond); err == nil {
			t.Cleanup(func() { c.Close() })
		}
	}
	if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		c.Close()
		t.Skip("the kernel accepted a dial past a full backlog")
	}
	return addr
}

// TestRouterOptionDialTimeout: a session whose backend cannot be dialed is
// refused after DialTimeout (the default is five seconds).
func TestRouterOptionDialTimeout(t *testing.T) {
	r := testRouter(t, RouterOptions{
		Backends:      []string{stuckBackend(t)},
		ProbeInterval: time.Hour,
		ProbeTimeout:  50 * time.Millisecond,
		DialTimeout:   50 * time.Millisecond,
	})
	start := time.Now()
	if c, err := af.NewConn(r.DialPipe()); err == nil {
		c.Close()
		t.Fatal("a session was placed on a backend that cannot be dialed")
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("refusal took %v with a 50 ms DialTimeout", took)
	}
	if b := backendStats(r); b.DialErrors != 1 {
		t.Errorf("%d dial errors, want 1", b.DialErrors)
	}
}
