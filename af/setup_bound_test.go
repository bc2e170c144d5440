package af_test

import (
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"audiofile/af"
)

// slack is what a bounded call may overrun its bound by in these tests.
const slack = 2 * time.Second

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

// deadSession opens a session whose server then dies, with reconnection
// on (maxAttempts, 10 ms backoff) against a silent listener. Each redial
// is counted in redials and signalled on redialed, buffered for the
// redials of two reconnects.
func deadSession(t *testing.T, maxAttempts int) (conn *af.Conn, redials *atomic.Int32, redialed chan struct{}) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "AFsock")
	srv := startServer(t, path)
	t.Cleanup(srv.Close)
	conn, err := af.Open("unix:" + path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(conn.Close)
	conn.SetIOErrorHandler(func(*af.Conn, error) {})
	silent := silentListener(t) // closed before conn, which unsticks a setup left unbounded
	redials, redialed = new(atomic.Int32), make(chan struct{}, 2*maxAttempts)
	err = conn.SetReconnect(af.ReconnectOptions{
		MaxAttempts: maxAttempts,
		Backoff:     10 * time.Millisecond,
		Redial: func() (net.Conn, error) {
			redials.Add(1)
			redialed <- struct{}{}
			return net.Dial("unix", silent)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.GetTime(0); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	return conn, redials, redialed
}

// failWithin runs calls in their own goroutines and requires each to fail
// within bound plus slack: a missing bound fails the test then, rather
// than hanging it.
func failWithin(t *testing.T, bound time.Duration, calls ...func() error) {
	t.Helper()
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
		case <-time.After(bound + slack - time.Since(start)):
			t.Fatalf("still blocked %v after the act began; bound %v", time.Since(start).Round(time.Millisecond), bound)
		}
	}
}

// TestSetupBounded points each of the library's set-up acts at a peer
// that never answers and requires every call to fail within the act's
// bound, built from DialTimeout and SetupTimeout.
func TestSetupBounded(t *testing.T) {
	t.Parallel()
	rows := []struct {
		name  string
		calls func(t *testing.T) []func() error
		bound time.Duration
	}{
		{"open", func(t *testing.T) []func() error {
			path := silentListener(t)
			return []func() error{func() error {
				_, err := af.Open("unix:" + path)
				return err
			}}
		}, af.DialTimeout + af.SetupTimeout},
		{"setup", func(t *testing.T) []func() error {
			nc, peer := net.Pipe() // peer never reads
			t.Cleanup(func() { nc.Close(); peer.Close() })
			return []func() error{func() error {
				_, err := af.NewConnRoute(nc, false, "")
				return err
			}}
		}, af.SetupTimeout},
		// A reconnect holds the connection lock, so a second goroutine's
		// call waits for it: both end within MaxAttempts × (dial + setup)
		// plus the backoff sum.
		{"reconnect", func(t *testing.T) []func() error {
			conn, _, redialed := deadSession(t, 2)
			return []func() error{
				func() error { _, err := conn.GetTime(0); return err },
				func() error { <-redialed; return conn.Sync() },
			}
		}, 2*(af.DialTimeout+af.SetupTimeout) + 10*time.Millisecond},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			failWithin(t, row.bound, row.calls(t)...)
		})
	}
}

// TestQueuedCallersShareFailedReconnect: two GetTimes on a dead session,
// the second queued behind the first's reconnect, which gives up after
// one attempt. The queued call fails with it rather than reconnecting
// again, so both end within one dial and setup bound and Redial runs once.
func TestQueuedCallersShareFailedReconnect(t *testing.T) {
	t.Parallel()
	conn, redials, redialed := deadSession(t, 1)
	failWithin(t, af.DialTimeout+af.SetupTimeout,
		func() error { _, err := conn.GetTime(0); return err },
		func() error { <-redialed; _, err := conn.GetTime(0); return err },
	)
	if n := redials.Load(); n != 1 {
		t.Errorf("Redial ran %d times, want 1", n)
	}
}
