package af

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"audiofile/aserver"
	"audiofile/internal/vdev"
)

// silentListener listens on a unix socket and never accepts: the kernel
// completes each connect into the backlog, as it does for a stopped or
// wedged afd, and nothing ever answers. Closing it resets those connects.
func silentListener(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "silent")
	ln, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return path
}

// TestSetupBounded points each of the library's set-up acts at a peer
// that never answers and requires every call to fail within the act's
// bound, built from dialTimeout and setupTimeout. The calls run in their
// own goroutines, so a missing bound fails the row after the bound plus
// slack rather than hanging the test.
func TestSetupBounded(t *testing.T) {
	const slack = 2 * time.Second
	rows := []struct {
		name  string
		calls func(t *testing.T) []func() error
		bound time.Duration
	}{
		{"open", func(t *testing.T) []func() error {
			path := silentListener(t)
			return []func() error{func() error {
				_, err := Open("unix:" + path)
				return err
			}}
		}, dialTimeout + setupTimeout},
		{"setup", func(t *testing.T) []func() error {
			nc, peer := net.Pipe() // peer never reads
			t.Cleanup(func() { nc.Close(); peer.Close() })
			return []func() error{func() error {
				_, err := NewConnRoute(nc, false, "")
				return err
			}}
		}, setupTimeout},
		// A reconnect holds the connection lock, so a second goroutine's
		// call waits for it: both end within MaxAttempts × (dial + setup)
		// plus the backoff sum.
		{"reconnect", func(t *testing.T) []func() error {
			srv, err := aserver.New(aserver.Options{
				Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Clock: vdev.NewManualClock(8000)}},
				Logf:    func(string, ...any) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			path := filepath.Join(t.TempDir(), "AFsock")
			if _, err := srv.Listen("unix", path); err != nil {
				t.Fatal(err)
			}
			conn, err := Open("unix:" + path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(conn.Close)
			conn.SetIOErrorHandler(func(*Conn, error) {})
			silent := silentListener(t) // closed before conn, which unsticks a setup left unbounded
			redialed := make(chan struct{}, 2)
			err = conn.SetReconnect(ReconnectOptions{
				MaxAttempts: 2,
				Backoff:     10 * time.Millisecond,
				Redial: func() (net.Conn, error) {
					redialed <- struct{}{}
					return dial("unix", silent)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.GetTime(0); err != nil {
				t.Fatal(err)
			}
			srv.Close()
			return []func() error{
				func() error { _, err := conn.GetTime(0); return err },
				func() error { <-redialed; return conn.Sync() },
			}
		}, 2*(dialTimeout+setupTimeout) + 10*time.Millisecond},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			calls := row.calls(t)
			done := make(chan error, len(calls))
			start := time.Now()
			for _, call := range calls {
				go func() { done <- call() }()
			}
			for range calls {
				select {
				case err := <-done:
					if err == nil {
						t.Errorf("a call against a silent peer succeeded")
					}
				case <-time.After(row.bound + slack - time.Since(start)):
					t.Fatalf("still blocked %v after the act began; bound %v", time.Since(start).Round(time.Millisecond), row.bound)
				}
			}
		})
	}
}
