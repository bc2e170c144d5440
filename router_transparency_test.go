// Proxy transparency: a session routed through the fleet router must be
// byte-for-byte indistinguishable from a direct one. The test runs a
// scripted op mix — hot-path plays and records (parked and immediate),
// control ops, property traffic with an event, a protocol error, and a
// broadcast subscription — against a manual-clock server twice per byte
// order (direct, then through a one-backend Router) and compares the
// raw reply streams the client read off the wire.
//
// Determinism is the delicate part: play replies carry the device time
// at completion, so the test may only advance the clock while a parked
// request is registered (or the scripted op has finished). That makes
// every park resolve at its minimal advance count, which pins device
// time — and therefore every timestamp in the reply stream — to the
// same value in all runs.
package audiofile

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/internal/rig"
	"audiofile/internal/vdev"
)

// recordingConn captures every byte the client reads (the server→client
// reply stream) while passing traffic through untouched.
type recordingConn struct {
	net.Conn
	mu  sync.Mutex
	buf bytes.Buffer
}

func (r *recordingConn) Read(p []byte) (int, error) {
	n, err := r.Conn.Read(p)
	if n > 0 {
		r.mu.Lock()
		r.buf.Write(p[:n])
		r.mu.Unlock()
	}
	return n, err
}

func (r *recordingConn) recorded() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.buf.Bytes()...)
}

// parkedNow sums outstanding parks across devices.
func parkedNow(srv *aserver.Server) int64 {
	var parked int64
	for _, d := range srv.Snapshot().Devices {
		parked += d.ParkedNow
	}
	return parked
}

// advanceThroughParks runs op on its own goroutine and steps the manual
// clock only while op has a request parked on the server. Never
// advancing without a park pending means each park resolves at its
// minimal advance count, so the total advance count — and with it the
// device time stamped into op's replies — is identical on every run.
func advanceThroughParks(t *testing.T, srv *aserver.Server, clk *vdev.ManualClock, op func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- op() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		// Wait for a park to register or the op to finish; advancing
		// during the gap between two parks would unpin the timestamps.
		for {
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("parked op: %v", err)
				}
				return
			default:
			}
			if parkedNow(srv) >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("parked op neither parked nor finished")
			}
			time.Sleep(100 * time.Microsecond)
		}
		clk.Advance(256)
		srv.Sync()
	}
}

// transparencyScript drives one deterministic op mix and returns the
// device time the run ended at (a quick cross-run sanity anchor).
func transparencyScript(t *testing.T, c *af.Conn, srv *aserver.Server, clk *vdev.ManualClock) af.ATime {
	t.Helper()
	pattern := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i)*3 + seed
		}
		return b
	}

	// Control-plane prologue: sync ops, async attribute change, atoms.
	start, err := c.GetTime(0)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := c.CreateAC(0, af.ACPreemption, af.ACAttributes{Preempt: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ac.GetTime(); err != nil {
		t.Fatal(err)
	}
	// A small play well inside the buffer window: replies immediately.
	if _, err := ac.PlaySamples(start, pattern(1024, 1)); err != nil {
		t.Fatal(err)
	}
	if err := ac.ChangeAttributes(af.ACPlayGain, af.ACAttributes{PlayGain: -6}); err != nil {
		t.Fatal(err)
	}
	atom, err := c.InternAtom("AF_TRANSPARENCY", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetAtomName(atom); err != nil {
		t.Fatal(err)
	}
	// Property traffic. Events are deliberately not selected here: every
	// event carries the server host's wall clock (HostSec/HostNsec, §5.2),
	// which no two runs can reproduce byte-for-byte. Event splicing is
	// covered semantically by TestRouterEventDelivery instead.
	if err := c.ChangeProperty(0, atom, atom, 8, af.PropModeReplace, []byte("direct-vs-routed")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ListProperties(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetProperty(0, atom, atom, false); err != nil {
		t.Fatal(err)
	}
	// A protocol error must splice through identically too.
	if _, err := c.GetTime(99); err == nil {
		t.Fatal("GetTime on a bogus device succeeded")
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}

	// Hot path, parked: a vectored play far past the buffer window. The
	// client splits it into 8 KiB chunks whose non-final replies are
	// suppressed; each chunk parks in turn and the barrier advances the
	// clock only while one is parked.
	advanceThroughParks(t, srv, clk, func() error {
		_, err := ac.PlaySamples(start.Add(1024), pattern(24576, 2))
		return err
	})

	// Blocking record: parks until the requested span is in the past.
	rnow, err := c.GetTime(0)
	if err != nil {
		t.Fatal(err)
	}
	advanceThroughParks(t, srv, clk, func() error {
		_, _, err := ac.RecordSamples(rnow, make([]byte, 256), true)
		return err
	})

	// Broadcast: subscribe, feed the device, and step the clock so the
	// monitor cuts chunks into the reply stream, then drain with a Sync
	// (the out-queue is FIFO, so the chunks precede the sync reply).
	sub, _, err := ac.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	bnow, err := c.GetTime(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ac.PlaySamples(bnow.Add(256), pattern(2048, 3)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		clk.Advance(256)
		srv.Sync()
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		_, ok, err := sub.TryNext()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got++
	}
	if got == 0 {
		t.Fatal("no broadcast chunks reached the subscriber")
	}
	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if err := ac.Free(); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	end, err := c.GetTime(0)
	if err != nil {
		t.Fatal(err)
	}
	return end
}

// transparencyRun executes the script against a fresh server, optionally
// through a one-backend router, and returns the captured reply stream.
func transparencyRun(t *testing.T, bigEndian, routed bool) (stream []byte, end af.ATime) {
	t.Helper()
	clk := vdev.NewManualClock(8000)
	srv := rig.Server(t, aserver.Options{
		Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Clock: clk}},
	})
	target := rig.Listen(t, srv, "tcp")

	if routed {
		router, err := aserver.NewRouter(aserver.RouterOptions{
			Backends:      []string{target},
			ProbeInterval: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer router.Close()
		rl, err := router.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		target = rl.Addr().String()
	}

	nc, err := net.Dial("tcp", target)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingConn{Conn: nc}
	// Both runs carry the same routing key: the backend ignores the
	// setup auth fields, so even the handshake bytes match.
	c, err := af.NewConnRoute(rec, bigEndian, "transparency")
	if err != nil {
		t.Fatal(err)
	}
	c.SetIOErrorHandler(func(*af.Conn, error) {})
	end = transparencyScript(t, c, srv, clk)
	c.Close()
	return rec.recorded(), end
}

// TestRouterProxyTransparency: for each byte order, the reply stream a
// client reads through the router equals the direct stream exactly.
func TestRouterProxyTransparency(t *testing.T) {
	for _, tc := range []struct {
		name      string
		bigEndian bool
	}{
		{"LittleEndian", false},
		{"BigEndian", true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			direct, dEnd := transparencyRun(t, tc.bigEndian, false)
			routed, rEnd := transparencyRun(t, tc.bigEndian, true)
			if dEnd != rEnd {
				t.Fatalf("runs ended at different device times: direct %d, routed %d", dEnd, rEnd)
			}
			if len(direct) == 0 {
				t.Fatal("direct run recorded no reply bytes")
			}
			if !bytes.Equal(direct, routed) {
				i := 0
				for i < len(direct) && i < len(routed) && direct[i] == routed[i] {
					i++
				}
				t.Fatalf("reply streams diverge: direct %d bytes, routed %d bytes, first difference at offset %d",
					len(direct), len(routed), i)
			}
		})
	}
}

// TestRouterEventDelivery: events splice through the router like any
// other backend bytes. (They are excluded from the byte-for-byte
// transparency script because they embed the server host's wall clock.)
func TestRouterEventDelivery(t *testing.T) {
	srv := rig.Server(t, aserver.Options{
		Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Clock: vdev.NewManualClock(8000)}},
	})
	router, err := aserver.NewRouter(aserver.RouterOptions{Backends: []string{rig.Listen(t, srv, "tcp")}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	c, err := af.NewConn(router.DialPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SelectEvents(0, af.MaskPropertyChange); err != nil {
		t.Fatal(err)
	}
	atom, err := c.InternAtom("AF_ROUTED_EVENT", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ChangeProperty(0, atom, atom, 8, af.PropModeReplace, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	ev, err := c.IfEvent(func(e *af.Event) bool { return e.Code == af.EventPropertyChange })
	if err != nil {
		t.Fatal(err)
	}
	if ev.Value != uint32(atom) {
		t.Fatalf("routed event value = %d, want atom %d", ev.Value, atom)
	}
}
