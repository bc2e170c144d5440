package aserver

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"audiofile/internal/health"
	"audiofile/internal/netsim"
	"audiofile/internal/proto"
)

// The RouterOptions audit (DESIGN.md, "Fleet routing & failover"): every
// field names a test that fails when the router ignores it. Backends is
// every router test's; the rest are pinned here.

func testRouter(t *testing.T, opts RouterOptions) *Router {
	t.Helper()
	r, err := NewRouter(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// liveBackend is an afd a router can probe and place sessions on.
func liveBackend(t *testing.T, opts Options) string {
	t.Helper()
	l, err := optionServer(t, opts).Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l.Addr().String()
}

// deadBackend is an address that refuses connections.
func deadBackend(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	return l.Addr().String()
}

func backendStats(r *Router) RouterBackendStats { return r.Snapshot().Backends[0] }

// TestRouterCloseDuringDialFlood: connections keep arriving while the
// router closes. Those that arrived before Close are closed by it —
// handlers waiting in the setup handshake included — and those after it
// are refused without a handler, so no goroutine outlives Close.
func TestRouterCloseDuringDialFlood(t *testing.T) {
	addr := liveBackend(t, Options{})
	baseline := runtime.NumGoroutine()
	r, err := NewRouter(RouterOptions{Backends: []string{addr}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn // never sends a setup request
	dialed := func() int { mu.Lock(); defer mu.Unlock(); return len(held) }
	defer func() {
		for _, c := range held {
			c.Close()
		}
	}()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var once sync.Once
	stopFlood := func() { once.Do(func() { close(stop) }); wg.Wait() }
	defer stopFlood()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c := r.DialPipe()
				mu.Lock()
				held = append(held, c)
				mu.Unlock()
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	waitFor(t, "dials before Close", func() bool { return dialed() >= 32 })
	closed := make(chan struct{})
	go func() { r.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close is waiting on connections that never finish their setup")
	}
	atClose := dialed()
	waitFor(t, "dials after Close", func() bool { return dialed() >= atClose+32 })
	stopFlood()

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines outlive Close (baseline %d, %d conns dialed)\n%s",
			n, baseline, dialed(), buf[:runtime.Stack(buf, true)])
	}
}

// TestRouterCloseStalledBackend: Close returns while a spliced session's
// backend has stopped — it answered the setup, then neither reads nor
// writes, like a SIGSTOPped afd. The client→backend pump is blocked in a
// Write and the backend→client pump in a Read; closing the client conn
// frees neither, so Close must close the backend conn too.
func TestRouterCloseStalledBackend(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var mu sync.Mutex
	var held []net.Conn
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	}()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
			go func() {
				if _, order, err := proto.ReadSetupRequest(c); err == nil {
					rep := proto.SetupReply{Success: true, Major: proto.ProtocolMajor, Minor: proto.ProtocolMinor}
					rep.Send(c, order) //nolint:errcheck — a failed send fails the client's setup
				}
			}()
		}
	}()
	r, err := NewRouter(RouterOptions{
		Backends:      []string{l.Addr().String()},
		ProbeInterval: time.Hour,
		ProbeTimeout:  50 * time.Millisecond, // the stalled backend fails every probe
	})
	if err != nil {
		t.Fatal(err)
	}
	nc := r.DialPipe()
	defer nc.Close()
	if _, err := proto.Setup(nc, nc, binary.LittleEndian, "", nil); err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := nc.Write(buf); err != nil {
				return
			}
		}
	}()
	var last uint64
	waitFor(t, "the splice to fill the backend's socket buffers", func() bool {
		time.Sleep(20 * time.Millisecond)
		n := r.Snapshot().ProxiedBytesC2B
		stalled := n > 0 && n == last
		last = n
		return stalled
	})

	closed := make(chan struct{})
	go func() { r.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close is waiting on a session whose backend stopped")
	}
	if s := r.Snapshot(); s.SessionsActive != 0 || s.Routes != 1 {
		t.Errorf("after Close: %d sessions active of %d routed", s.SessionsActive, s.Routes)
	}
}

// TestRouterRedirectReachable: a backend is handed to a client only over
// the client's own network, and an address that dials the router's host
// only to a client on that host.
func TestRouterRedirectReachable(t *testing.T) {
	local := &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 40000}
	remote := &net.TCPAddr{IP: net.IPv4(10, 0, 0, 5), Port: 40000}
	unix := &net.UnixAddr{Name: "@", Net: "unix"}
	pc, ps := net.Pipe()
	defer pc.Close()
	defer ps.Close()
	for _, tc := range []struct {
		client        net.Addr
		network, addr string
		want          bool
	}{
		{local, "tcp", "127.0.0.1:7001", true},
		{local, "tcp", "10.0.0.9:7001", true},
		{remote, "tcp", "10.0.0.9:7001", true},
		{remote, "tcp", "host.example:7001", true},
		{remote, "tcp", "127.0.0.1:7001", false},
		{remote, "tcp", "[::1]:7001", false},
		{remote, "tcp", "localhost:7001", false},
		{remote, "tcp", ":7001", false},
		{remote, "tcp", "0.0.0.0:7001", false},
		{remote, "tcp", "no port", false},
		{local, "unix", "/tmp/.AFunix/AF1", false},
		{unix, "unix", "/tmp/.AFunix/AF1", true},
		{unix, "tcp", "127.0.0.1:7001", false},
		{pc.RemoteAddr(), "tcp", "127.0.0.1:7001", false},
		{nil, "tcp", "127.0.0.1:7001", false},
	} {
		if got := reachable(tc.client, tc.network, tc.addr); got != tc.want {
			t.Errorf("reachable(%v, %s %s) = %v, want %v", tc.client, tc.network, tc.addr, got, tc.want)
		}
	}
}

// TestRouterOptionDirectory: Names and Replicas build the directory.
func TestRouterOptionDirectory(t *testing.T) {
	names := []string{"left", "right"}
	r := testRouter(t, RouterOptions{
		Backends:      []string{deadBackend(t), deadBackend(t)},
		Names:         names,
		Replicas:      7,
		ProbeInterval: time.Hour,
	})
	if got := r.Directory().backends; strings.Join(got, ",") != "left,right" {
		t.Errorf("directory built over %q, want the Names %q", got, names)
	}
	if got := r.Directory().replicas; got != 7 {
		t.Errorf("directory has %d replicas, want 7", got)
	}
	if got := r.Snapshot().Backends[1].Name; got != "right" {
		t.Errorf("snapshot names backend 1 %q, want right", got)
	}
}

// TestRouterOptionProbeInterval: probes run every ProbeInterval (the
// default is a second).
func TestRouterOptionProbeInterval(t *testing.T) {
	r := testRouter(t, RouterOptions{Backends: []string{liveBackend(t, Options{})}, ProbeInterval: 5 * time.Millisecond})
	time.Sleep(200 * time.Millisecond)
	if b := backendStats(r); b.Probes < 10 || b.ProbeFailures != 0 {
		t.Errorf("%d probes (%d failed) in 200 ms at a 5 ms interval", b.Probes, b.ProbeFailures)
	}
}

// TestRouterOptionProbeTimeout: a backend that accepts and never answers
// fails its probe after ProbeTimeout (the default is two seconds).
func TestRouterOptionProbeTimeout(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close() // held, unanswered, until the listener closes
		}
	}()
	start := time.Now()
	r := testRouter(t, RouterOptions{Backends: []string{l.Addr().String()}, ProbeInterval: time.Hour, ProbeTimeout: 20 * time.Millisecond})
	waitFor(t, "the unanswered probe to fail", func() bool { return backendStats(r).ProbeFailures == 1 })
	if took := time.Since(start); took > time.Second {
		t.Errorf("the probe failed after %v with a 20 ms probe timeout", took)
	}
}

// TestRouterOptionFailThreshold: FailThreshold failed probes take a dead
// backend out of placement, and not fewer; the transition is reported
// through Logf (the Logf row of the audit).
func TestRouterOptionFailThreshold(t *testing.T) {
	for _, threshold := range []int{1, 1000} {
		var mu sync.Mutex
		var logged []string
		r := testRouter(t, RouterOptions{
			Backends:      []string{deadBackend(t)},
			ProbeInterval: 2 * time.Millisecond,
			FailThreshold: threshold,
			Logf: func(format string, args ...any) {
				mu.Lock()
				logged = append(logged, format)
				mu.Unlock()
			},
		})
		waitFor(t, "five failed probes", func() bool { return backendStats(r).ProbeFailures >= 5 })
		b := backendStats(r)
		if escalated := b.State != health.Healthy; escalated != (threshold == 1) {
			t.Errorf("FailThreshold %d: state %s after %d failed probes", threshold, b.State, b.ProbeFailures)
		}
		mu.Lock()
		if said := len(logged) > 0; said != (threshold == 1) {
			t.Errorf("FailThreshold %d: Logf received %q", threshold, logged)
		}
		mu.Unlock()
	}
}

// TestRouterOptionClientWriteStall: a client that stops reading loses its
// session after ClientWriteStall (the default is thirty seconds). The
// backend's own budget is off, so the router is what acts.
func TestRouterOptionClientWriteStall(t *testing.T) {
	r := testRouter(t, RouterOptions{
		Backends:         []string{liveBackend(t, Options{ClientQueueBytes: -1})},
		ProbeInterval:    time.Hour,
		ClientWriteStall: 100 * time.Millisecond,
	})
	nc := r.DialPipe() // unbuffered: the pump's first unread write stalls
	defer nc.Close()
	if _, err := proto.Setup(nc, nc, binary.LittleEndian, "", nil); err != nil {
		t.Fatal(err)
	}
	w := proto.Writer{Order: binary.LittleEndian}
	proto.AppendDeviceReq(&w, proto.OpGetTime, 0) //nolint:errcheck
	if _, err := nc.Write(w.Buf); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the stalled client's session to close", func() bool { return r.Snapshot().ClosedClient == 1 })
}

// TestRouterBackendDeathClosesClient: a proxied session's backend dies
// while a standby is live. The router confirms the death, takes the
// backend out of placement and closes the client: the client reads
// every reply spliced before the death and then EOF, nothing between,
// and a reconnect started at that EOF cannot be placed on the dead
// backend.
func TestRouterBackendDeathClosesClient(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	brk := netsim.NewBreaker(inner)
	go optionServer(t, Options{}).Serve(brk) //nolint:errcheck — ends when the listener closes
	const victim = 0
	r := testRouter(t, RouterOptions{
		Backends:      []string{brk.Addr().String(), liveBackend(t, Options{})},
		ProbeInterval: time.Hour,
	})
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprint("key", i); r.Directory().Lookup(k) == victim {
			key = k
		}
	}
	l, err := r.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := proto.Setup(nc, nc, binary.LittleEndian, proto.RouteAuthName, []byte(key)); err != nil {
		t.Fatal(err)
	}
	const n = 8
	if _, err := nc.Write(getTimeBurst(n, 0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "every reply spliced", func() bool {
		return r.Snapshot().ProxiedBytesB2C == n*proto.ReplyHeaderBytes
	})
	brk.Kill()

	nc.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	got, err := io.ReadAll(nc)
	if err != nil {
		t.Fatalf("the client's read ended in %v, want EOF", err)
	}
	if state := r.Snapshot().Backends[victim].State; state == health.Healthy {
		t.Error("the dead backend is still placeable when the client sees EOF")
	}
	br := bytes.NewReader(got)
	var msg proto.Message
	for seq := uint16(1); seq <= n; seq++ {
		if err := proto.ReadMessageInto(br, binary.LittleEndian, &msg); err != nil || msg.Reply == nil || msg.Reply.Seq != seq {
			t.Fatalf("message %d of %d bytes: %+v, %v; want the reply to request %d", seq, len(got), msg, err, seq)
		}
	}
	if br.Len() != 0 {
		t.Errorf("%d bytes between the last spliced reply and EOF", br.Len())
	}

	var snap RouterSnapshot
	waitFor(t, "the session to end and the resync to settle", func() bool {
		snap = r.Snapshot()
		return snap.SessionsActive == 0 && snap.Backends[victim].State == health.Down
	})
	if snap.FailoversStarted != 1 || snap.ClosedBackend != 0 {
		t.Errorf("failovers_started %d, closed_backend %d; want 1 and 0", snap.FailoversStarted, snap.ClosedBackend)
	}
	if err := snap.Check(true); err != nil {
		t.Errorf("drained: %v", err)
	}
}

// TestRouterBackendRefusal: a backend refuses a proxied setup (the
// client asks for a protocol major version it does not speak). The
// router relays the refusal as it came, so the client reads the backend's
// reason, and counts a route error, not a route: no session opens.
func TestRouterBackendRefusal(t *testing.T) {
	r := testRouter(t, RouterOptions{
		Backends:      []string{liveBackend(t, Options{})},
		ProbeInterval: time.Hour,
	})
	l, err := r.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	req := proto.SetupRequest{ByteOrder: proto.LittleEndianOrder, Major: proto.ProtocolMajor + 1,
		AuthName: proto.RouteAuthName, AuthData: []byte("key")}
	if err := req.Send(nc); err != nil {
		t.Fatal(err)
	}
	rep, err := proto.ReadSetupReply(nc, binary.LittleEndian)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Success || !strings.Contains(rep.Reason, "protocol version mismatch") {
		t.Fatalf("setup reply %+v, want the backend's version refusal", rep)
	}

	var snap RouterSnapshot
	waitFor(t, "the refusal to be counted", func() bool {
		snap = r.Snapshot()
		return snap.RouteErrors == 1
	})
	if snap.Routes != 0 || snap.SessionsActive != 0 {
		t.Errorf("routes %d, sessions_active %d; want 0 and 0", snap.Routes, snap.SessionsActive)
	}
	if err := snap.Check(true); err != nil {
		t.Errorf("settled: %v", err)
	}
}
