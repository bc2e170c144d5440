// Router overload regression: the per-client overload policy (byte
// budget + eviction) must keep working when the wedged client sits
// behind the fleet router instead of on a direct connection. The router
// forwards backpressure instead of absorbing it: its backend→client
// pump writes under a rolling stall deadline, so a client that stops
// reading stalls the pump, the router stops draining the backend, the
// backend's per-client queue crosses its budget, and the backend evicts
// the session — while a canary client on the same router and backend
// streams unharmed. A deliberate eviction must NOT be misread as a
// backend death: the router's confirm probe sees the backend answering,
// so failovers_started stays zero and the close is classified as a
// plain session close.
package audiofile

import (
	"encoding/binary"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/internal/metrics"
	"audiofile/internal/proto"
	"audiofile/internal/rig"
	"audiofile/internal/vdev"
)

func TestRouterOverloadEviction(t *testing.T) {
	const (
		rate         = 8000
		clientBudget = 32 << 10
		evictGrace   = 100 * time.Millisecond
		// The reply stream must overflow kernel socket buffering on BOTH
		// hops (backend→router and router→client) before user-space
		// queueing — and thus the eviction policy — sees backpressure.
		// What the hops can hold is pinned below (hopBufBytes), so the
		// flood exceeds it by two orders of magnitude on any host; left to
		// TCP autotuning, a 32 MB tcp_rmem ceiling absorbed all 25.6 MB of
		// it about one run in fifteen.
		floodRequests = 800_000
		hopBufBytes   = 64 << 10
	)

	clk := vdev.NewManualClock(rate)
	srv := rig.Server(t, aserver.Options{
		Devices:          []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Clock: clk}},
		ClientQueueBytes: clientBudget,
		EvictGrace:       evictGrace,
	})
	// The router→backend hop is a unix socket: its buffering is the
	// sender's SO_SNDBUF and does not autotune, and the side that sends
	// the replies is a conn the test's own listener accepts and pins. The
	// router→client hop stays TCP: its sending side is pinned the same way
	// and its receiving side by the flooder itself.
	bl, err := net.Listen("unix", filepath.Join(t.TempDir(), "backend"))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(pinnedListener{bl, hopBufBytes}) //nolint:errcheck — ends when the listener closes
	router, err := aserver.NewRouter(aserver.RouterOptions{
		Backends:      []string{bl.Addr().String()},
		ProbeInterval: 25 * time.Millisecond,
		// The stall backstop must lose the race against the backend's
		// eviction policy — this test is about the BACKEND evicting the
		// flooder, with the router merely forwarding backpressure. Under
		// the race detector the backend needs several seconds to push
		// its reply queue over budget, so the backstop sits well beyond
		// that; it only matters for a wedged client whose backend never
		// acts at all.
		ClientWriteStall: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.DumpEvents(t, func() metrics.LogSnapshot { return router.Snapshot().Events })
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go router.Serve(pinnedListener{rl, hopBufBytes}) //nolint:errcheck — ends when the listener closes
	routerAddr := rl.Addr().String()

	// Clock stepper so canary parks resolve.
	stepper := rig.Step(t, srv, 50*time.Microsecond, clk)

	var failErr rig.FirstError
	fail := failErr.Fail

	// The wedged consumer, through the router: floods pipelined GetTime
	// requests and never reads a reply. Its receive buffer is pinned
	// small so the kernel cannot drain the reply stream for it. It floods
	// until it is cut or the test, having seen the eviction, hangs up for
	// it: a TCP peer that never reads advertises a zero window, and a
	// reset that arrives behind unacknowledged reply bytes is outside that
	// window and ignored, so the flooder cannot count on hearing the cut.
	nc, err := net.Dial("tcp", routerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var floodWG sync.WaitGroup
	floodWG.Add(1)
	go func() {
		defer floodWG.Done()
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetReadBuffer(4096) //nolint:errcheck
		}
		if _, err := proto.Setup(nc, nc, binary.LittleEndian, "", nil); err != nil {
			fail(fmt.Errorf("flooder: %w", err))
			return
		}
		var w proto.Writer
		w.Order = binary.LittleEndian
		const burst = 64
		for i := 0; i < burst; i++ {
			proto.AppendDeviceReq(&w, proto.OpGetTime, 0) //nolint:errcheck
		}
		for i := 0; i < floodRequests; i += burst {
			if _, err := nc.Write(w.Buf); err != nil {
				return // cut by the eviction, or hung up for: the expected outcome
			}
		}
		// The whole flood went out: the conn stays open and unread until
		// the test has its verdict.
	}()

	// The canary: a routed client whose every operation must succeed
	// while the flooder is being strangled next door.
	var canaryOps atomic.Int64
	var canaryWG sync.WaitGroup
	canaryWG.Add(1)
	go func() {
		defer canaryWG.Done()
		conn, err := rig.Client(router.DialPipe())
		if err != nil {
			fail(err)
			return
		}
		defer conn.Close()
		ac, err := conn.CreateAC(0, 0, af.ACAttributes{})
		if err != nil {
			fail(err)
			return
		}
		data := make([]byte, 512)
		buf := make([]byte, 256)
		for j := 0; j < 100; j++ {
			now, err := ac.GetTime()
			if err != nil {
				fail(fmt.Errorf("canary GetTime %d: %w", j, err))
				return
			}
			if _, err := ac.PlaySamples(now.Add(1024), data); err != nil {
				fail(fmt.Errorf("canary play %d: %w", j, err))
				return
			}
			if j%5 == 0 {
				if _, _, err := ac.RecordSamples(now, buf, true); err != nil {
					fail(fmt.Errorf("canary record %d: %w", j, err))
					return
				}
			}
			canaryOps.Add(1)
		}
	}()

	waitDone := func(what string, wg *sync.WaitGroup, timeout time.Duration) {
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(timeout):
			t.Fatalf("%s did not finish in %v", what, timeout)
		}
	}
	waitFor(t, 60*time.Second, "the backend to evict the wedged flooder", func() bool {
		return srv.Snapshot().Evictions >= 1
	})
	nc.Close()
	waitDone("flooder", &floodWG, 10*time.Second)
	waitDone("canary", &canaryWG, 60*time.Second)
	stepper.Stop()

	if err := failErr.Err(); err != nil {
		t.Fatalf("workload error: %v", err)
	}
	if n := canaryOps.Load(); n != 100 {
		t.Errorf("canary completed %d/100 iterations", n)
	}

	// Router drained (both the flooder and the canary are gone).
	waitFor(t, 10*time.Second, "router drained", func() bool {
		return router.Snapshot().SessionsActive == 0
	})
	router.Close()
	rs := router.Snapshot()
	// A deliberate eviction is not a failover: the confirm probe found
	// the backend alive, so every close is a plain classification.
	if rs.FailoversStarted != 0 {
		t.Errorf("failovers_started = %d after a deliberate eviction, want 0", rs.FailoversStarted)
	}
	if err := rs.Check(true); err != nil {
		t.Error(err)
	}

	// The backend must have evicted the flooder, and its own books —
	// including the close-reason accounting — must balance exactly.
	s := drainSnapshot(t, srv)
	if s.Evictions < 1 {
		t.Errorf("backend evictions = %d, want >= 1 (the wedged flooder)", s.Evictions)
	}
	if err := s.Check(true); err != nil {
		t.Error(err)
	}
	t.Logf("evictions %d | router routes %d closed %d/%d | canary ops %d",
		s.Evictions, rs.Routes, rs.ClosedClient, rs.ClosedBackend, canaryOps.Load())

	bl.Close()
}

// pinnedListener pins SO_SNDBUF on every conn it accepts — the side of
// each hop that sends replies — so what the hop can hold in the kernel is
// a constant of the test rather than whatever buffer autotuning grows to
// on this host. SO_RCVBUF is left alone on purpose: it is the request
// direction, which bounds nothing here, and a pinned 64 KiB window against
// loopback's 64 KiB segments wedges the flooder in zero-window probing
// (neither side's window updates are in the other's window), so it cannot
// see the reset the eviction sends.
type pinnedListener struct {
	net.Listener
	sndBuf int
}

func (l pinnedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if sock, ok := conn.(interface{ SetWriteBuffer(int) error }); ok && err == nil {
		sock.SetWriteBuffer(l.sndBuf) //nolint:errcheck — best effort, as the flooder's own pin
	}
	return conn, err
}
