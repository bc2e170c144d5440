package af_test

import (
	"encoding/binary"
	"math/rand"
	"net"
	"testing"
	"time"

	"audiofile/af"
)

// TestServerSurvivesGarbage: random bytes after a valid setup must not
// crash or wedge the server; well-behaved clients keep working.
func TestServerSurvivesGarbage(t *testing.T) {
	r := newStack(t)
	good := r.dial(t)

	for seed := 0; seed < 5; seed++ {
		nc, err := net.Dial("unix", r.addr)
		if err != nil {
			t.Fatal(err)
		}
		// Valid setup first so the garbage lands on the dispatcher.
		setup := []byte{'l', 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0}
		if _, err := nc.Write(setup); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		junk := make([]byte, 512)
		rng.Read(junk)
		nc.Write(junk) //nolint:errcheck
		nc.Close()
	}

	// Also garbage at the handshake itself.
	nc, err := net.Dial("unix", r.addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.Write([]byte("GET / HTTP/1.1\r\n\r\n")) //nolint:errcheck
	nc.Close()

	// The well-behaved client is unaffected.
	if _, err := good.GetTime(1); err != nil {
		t.Fatalf("good client broken after garbage: %v", err)
	}
}

// TestServerSurvivesTruncatedRequest: a request header promising more
// body than ever arrives just hangs that one connection until it closes.
func TestServerSurvivesTruncatedRequest(t *testing.T) {
	r := newStack(t)
	nc, err := net.Dial("unix", r.addr)
	if err != nil {
		t.Fatal(err)
	}
	setup := []byte{'l', 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	nc.Write(setup) //nolint:errcheck
	// Drain the setup reply.
	hdr := make([]byte, 8)
	readFullDeadline(t, nc, hdr)
	extra := make([]byte, int(binary.LittleEndian.Uint16(hdr[6:]))*4)
	readFullDeadline(t, nc, extra)
	// Header says 1000 words; send only the header.
	req := []byte{7 /*GetTime*/, 0, 0xE8, 0x03}
	nc.Write(req) //nolint:errcheck
	time.Sleep(50 * time.Millisecond)
	nc.Close()

	good := r.dial(t)
	if _, err := good.GetTime(1); err != nil {
		t.Fatalf("server wedged by truncated request: %v", err)
	}
}

func readFullDeadline(t *testing.T, nc net.Conn, buf []byte) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	total := 0
	for total < len(buf) {
		n, err := nc.Read(buf[total:])
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	nc.SetReadDeadline(time.Time{}) //nolint:errcheck
}

// TestAbruptDisconnectsUnderLoad: clients that vanish mid-conversation
// (including with a blocking record parked) release their resources.
func TestAbruptDisconnectsUnderLoad(t *testing.T) {
	r := newStack(t)
	r.step(200)
	for i := 0; i < 10; i++ {
		nc, err := net.Dial("unix", r.addr)
		if err != nil {
			t.Fatal(err)
		}
		c, err := af.NewConn(nc)
		if err != nil {
			t.Fatal(err)
		}
		c.SetIOErrorHandler(func(*af.Conn, error) {}) // the kill is deliberate
		ac, err := c.CreateAC(1, 0, af.ACAttributes{})
		if err != nil {
			t.Fatal(err)
		}
		now, _ := ac.GetTime()
		// Park a blocking record in the far future, then slam the door.
		go ac.RecordSamples(now.Add(8000), make([]byte, 100), true) //nolint:errcheck
		time.Sleep(10 * time.Millisecond)
		nc.Close()
	}
	time.Sleep(50 * time.Millisecond)
	// The device's record reference count must have been released: a
	// fresh client sees a healthy server.
	good := r.dial(t)
	ac, _ := good.CreateAC(1, 0, af.ACAttributes{})
	if _, err := ac.GetTime(); err != nil {
		t.Fatal(err)
	}
	r.srv.Do(func() {
		root := r.srv.Device(1)
		if root.RecRefCount != 0 {
			t.Errorf("RecRefCount leaked: %d", root.RecRefCount)
		}
	})
}

// TestSlowReaderDisconnected: a client that never reads while the server
// has a queue of messages for it gets dropped instead of blocking the
// single-threaded loop.
func TestSlowReaderDisconnected(t *testing.T) {
	r := newStack(t)
	nc, err := net.Dial("unix", r.addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := af.NewConn(nc)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := c.CreateAC(1, 0, af.ACAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	_ = ac
	// Flood the server with non-suppressed play requests whose replies we
	// never read. Eventually the outgoing queue overflows and the server
	// cuts the connection; the writes then fail. Either way the loop stays
	// healthy.
	dead := false
	for i := 0; i < 100000 && !dead; i++ {
		raw := make([]byte, 16)
		raw[0] = 7 // GetTime
		binary.LittleEndian.PutUint16(raw[2:], 2)
		binary.LittleEndian.PutUint32(raw[4:], 1)
		nc.SetWriteDeadline(time.Now().Add(100 * time.Millisecond)) //nolint:errcheck
		if _, err := nc.Write(raw[:8]); err != nil {
			dead = true
		}
	}
	nc.Close()
	good := r.dial(t)
	if _, err := good.GetTime(1); err != nil {
		t.Fatalf("server wedged by slow reader: %v", err)
	}
}
