package af_test

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"audiofile/aserver"
	"audiofile/internal/rig"
)

// deadlineFailConn makes SetReadDeadline fail on demand. The poll path
// (Pending / EventsQueued / CheckIfEvent) arms a short read deadline
// before its probe read; if arming silently fails, the probe becomes a
// blocking read and the "non-blocking" call hangs until the server
// happens to send something.
type deadlineFailConn struct {
	net.Conn
	fail atomic.Bool
}

var errDeadlineBroken = errors.New("deadline unsupported")

func (c *deadlineFailConn) SetReadDeadline(t time.Time) error {
	if c.fail.Load() {
		return errDeadlineBroken
	}
	return c.Conn.SetReadDeadline(t)
}

func TestPollSurfacesDeadlineError(t *testing.T) {
	srv := rig.Server(t, aserver.Options{Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0"}}})
	fc := &deadlineFailConn{Conn: srv.DialPipe()}
	conn, err := rig.Client(fc)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Healthy transport: Pending polls and returns without events.
	if n, err := conn.Pending(); err != nil || n != 0 {
		t.Fatalf("Pending on healthy conn = %d, %v", n, err)
	}

	// Broken transport: the poll must return the deadline error instead
	// of falling through to an unbounded blocking read.
	fc.fail.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := conn.Pending()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errDeadlineBroken) {
			t.Errorf("Pending error = %v, want wrapped %v", err, errDeadlineBroken)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Pending hung on a transport whose SetReadDeadline fails")
	}
}
