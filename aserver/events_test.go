package aserver

import (
	"encoding/binary"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"audiofile/internal/lineserver"
	"audiofile/internal/metrics"
	"audiofile/internal/netsim"
	"audiofile/internal/proto"
	"audiofile/internal/vdev"
)

// lineBox is a LineServer stand-in that answers every packet while alive,
// so a lineserver device's backend can go down and come back at one
// address. It returns the address.
func lineBox(t *testing.T, alive *atomic.Bool) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	go func() {
		buf := make([]byte, 2048)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			if req, err := lineserver.Parse(buf[:n]); err == nil && alive.Load() {
				rep := lineserver.Packet{Seq: req.Seq, Fn: req.Fn}
				pc.WriteTo(rep.Marshal(), from) //nolint:errcheck
			}
		}
	}()
	return pc.LocalAddr().String()
}

// routedSetup dials the router and sets up a session on key; direct asks
// for a redirect. The setup's outcome is the router's event to record.
func routedSetup(t *testing.T, addr, key string, direct bool) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	auth := proto.RouteAuthName
	if direct {
		auth = proto.RouteDirectAuthName
	}
	proto.Setup(nc, nc, binary.LittleEndian, auth, []byte(key)) //nolint:errcheck — a refusal is a cause too
}

// TestEventsReachStats: /stats is the only export of the event log, as
// of the counters (TestMetricsReachStats), so every kind must reach the
// Snapshot or RouterSnapshot it serves. Each step causes one event; each
// must appear after the one before it in the same log, the sequence
// numbers strictly rising.
func TestEventsReachStats(t *testing.T) {
	var boxAlive atomic.Bool
	boxAlive.Store(true)
	srv, err := New(Options{EvictGrace: 20 * time.Millisecond, Devices: []DeviceSpec{
		{Kind: "codec", Clock: vdev.NewManualClock(8000)},
		{Kind: "lineserver", Name: "als0", Addr: lineBox(t, &boxAlive), LSNoExtrapolate: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	// session opens a raw pipe session that never reads, and returns the
	// server's side of it, the one client.
	session := func() *client {
		t.Helper()
		waitFor(t, "the last client to go", func() bool { return soleClient(srv) == nil })
		dialRaw(t, srv)
		var c *client
		waitFor(t, "registration", func() bool { c = soleClient(srv); return c != nil })
		return c
	}

	backend := optionServer(t, Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	brk := netsim.NewBreaker(l)
	go backend.Serve(brk) //nolint:errcheck — ends when the breaker closes
	t.Cleanup(func() { brk.Close() })
	// Three failed probes 50 ms apart escalate; a failed session dial or
	// confirm probe is much sooner.
	r := testRouter(t, RouterOptions{Backends: []string{l.Addr().String()}, Names: []string{"b0"},
		ProbeInterval: 50 * time.Millisecond, FailThreshold: 3})
	waitFor(t, "the first probe", func() bool { return backendStats(r).Probes > 0 })
	rl, err := r.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	raddr := rl.Addr().String()

	const server, router = 0, 1
	logs := [...]func() metrics.LogSnapshot{
		func() metrics.LogSnapshot { return srv.Snapshot().Events },
		func() metrics.LogSnapshot { return r.Snapshot().Events },
	}
	var after [len(logs)]uint64 // each log's event the last step found
	for _, step := range []struct {
		name   string
		log    int
		kind   metrics.Kind
		detail string // a part of the event's detail
		cause  func()
	}{
		{"eviction over budget", server, metrics.Evict, "send budget", func() {
			c := session()
			c.flow.overSince.Store(1)
			c.overBudget(c.flow.budget+1, time.Now().UnixNano())
		}},
		{"eviction at a missed deadline", server, metrics.Evict, "write deadline", func() {
			c := session()
			c.flow.overSince.Store(time.Now().UnixNano()) // over budget from now: a deadline is armed
			m := getMsg("test")
			msgBytes(m, proto.ReplyHeaderBytes)
			c.send(m) // never read
		}},
		{"shed", server, metrics.Shed, "oldest-idle", func() {
			session()
			srv.shedOldestIdle(nil)
		}},
		{"setup refusal", server, metrics.Refuse, "version mismatch", func() {
			nc := srv.DialPipe()
			defer nc.Close()
			req := proto.SetupRequest{ByteOrder: proto.LittleEndianOrder, Major: proto.ProtocolMajor + 1}
			req.Send(nc)                                  //nolint:errcheck
			proto.ReadSetupReply(nc, binary.LittleEndian) //nolint:errcheck
		}},
		{"lineserver down", server, metrics.Health, "-> down", func() { boxAlive.Store(false) }},
		{"lineserver back", server, metrics.Health, "down -> healthy", func() { boxAlive.Store(true) }},
		{"lineserver transport error", server, metrics.TransportError, "closed", func() {
			srv.devices[1].Backend().(*lineserver.Backend).Close()
		}},
		{"drain", server, metrics.Drain, "draining", func() {
			session()
			srv.Drain(time.Second)
		}},

		{"redirect", router, metrics.Redirect, "to b0", func() { routedSetup(t, raddr, "k", true) }},
		{"failover", router, metrics.Failover, "b0 is down", func() {
			routedSetup(t, raddr, "k", false)
			waitFor(t, "the route", func() bool { return r.Snapshot().SessionsActive == 1 })
			brk.Kill()
		}},
		{"router backend down", router, metrics.Health, "-> down", func() {}},
		{"route error", router, metrics.RouteError, "no live backend", func() { routedSetup(t, raddr, "k", false) }},
		{"router backend back", router, metrics.Health, "down -> healthy", brk.Revive},
		{"dial error", router, metrics.DialError, "", func() {
			brk.Kill()
			routedSetup(t, raddr, "k", false)
		}},
	} {
		step.cause()
		var ev metrics.Event
		waitFor(t, step.name, func() bool {
			for _, ev = range logs[step.log]().Events {
				if ev.Seq > after[step.log] && ev.Kind == step.kind && strings.Contains(ev.Detail, step.detail) {
					return true
				}
			}
			return false
		})
		after[step.log] = ev.Seq
	}
	for _, log := range logs {
		for i, ev := range log().Events {
			if ev.Seq != uint64(i+1) {
				t.Fatalf("event %d numbered %d: %+v", i, ev.Seq, log().Events)
			}
		}
	}
}
