// Router failover soak: a fleet of three afd backends behind the
// consistent-hash router, a crowd of route-keyed clients streaming
// play/record traffic through it, and a backend killed mid-stream. The
// assertions are the failover contract from the fleet-routing design:
//
//   - Every client of the dead backend resumes on the standby the
//     directory predicts (first live owner in preference order), within
//     the soak's recovery window, and keeps streaming.
//   - No client sees an error above af.SetReconnect: the only failure
//     shape the workload may observe is af.ReconnectedError, after
//     which a GetTime re-anchor resumes the stream.
//   - Clients on surviving backends are untouched: zero resyncs.
//   - Audio contexts replay verbatim across the failover: the replayed
//     AC keeps working (plays, records, attribute changes) on the
//     standby without being re-created by the application.
//   - The router's books balance (RouterSnapshot.Check): the laws' live
//     forms hold in every snapshot taken throughout the run, and the
//     laws hold exactly once the router is drained.
//   - Goroutines settle to baseline after teardown: no leaked pumps,
//     probers, breakers, or client readers.
//
// Failover is each client's own reconnect. Half the clients reach the
// router through a pass-through wrapper, so af cannot follow a setup
// redirect and they are proxied: the router confirms the death, takes
// the backend out of placement and closes their sessions, and they
// redial it. The other half are redirected and talk to their backend
// directly: their transport dies, and the router sees their reconnect
// only as a new setup.
//
// ROUTER_SEED varies the routing keys (and so the placement pattern);
// CI runs a small seed matrix.
package audiofile

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/internal/metrics"
	"audiofile/internal/rig"
	"audiofile/internal/vdev"
)

// routerSeed returns the run's placement seed (ROUTER_SEED, default 1).
func routerSeed(t *testing.T) int64 {
	s := os.Getenv("ROUTER_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("ROUTER_SEED=%q: %v", s, err)
	}
	return v
}

// soakClient is one streaming session's loop state and verdict.
type soakClient struct {
	key     string
	owner   int  // directory placement while all backends are healthy
	proxied bool // reaches the router through passConn

	mu            sync.Mutex
	plays         int // successful play round trips
	records       int // successful record round trips
	resyncs       int // ReconnectedError occurrences
	playsAfterCut int // successful plays after the kill (victim clients: resumed)
	hardErr       error
}

func (sc *soakClient) note(f func(*soakClient)) {
	sc.mu.Lock()
	f(sc)
	sc.mu.Unlock()
}

func TestRouterFailoverSoak(t *testing.T) {
	const (
		nBackends = 3
		nClients  = 12
		chunk     = 256
	)
	seed := routerSeed(t)
	baseline := runtime.NumGoroutine()

	// The fleet: real-clock servers, each behind a Breaker so the test
	// can crash it.
	backends := make([]*rig.Backend, nBackends)
	addrs := make([]string, nBackends)
	for i := range backends {
		backends[i] = rig.NewBackend(t, "tcp", vdev.NewRealClock(8000, 0))
		addrs[i] = backends[i].Brk.Addr().String()
	}
	router, err := aserver.NewRouter(aserver.RouterOptions{
		Backends:      addrs,
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		FailThreshold: 2,
		DialTimeout:   500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.DumpEvents(t, func() metrics.LogSnapshot { return router.Snapshot().Events })
	rl, err := router.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	routerAddr := rl.Addr().String()
	dir := router.Directory()

	// The workload: each client streams short plays (with records and
	// attribute changes sprinkled in) until told to stop. The only
	// tolerated failure is ReconnectedError — anything else is a hard
	// error and fails the soak.
	clients := make([]*soakClient, nClients)
	conns := make([]*af.Conn, nClients)
	acs := make([]*af.AC, nClients)
	for i := range clients {
		key := fmt.Sprintf("session-%d-%d", seed, i)
		proxied := i%4 < 2 // both byte orders in each half
		clients[i] = &soakClient{key: key, owner: dir.Lookup(key), proxied: proxied}
		dial := func() (net.Conn, error) {
			nc, err := net.Dial("tcp", routerAddr)
			if err != nil || !proxied {
				return nc, err
			}
			return passConn{nc}, nil
		}
		nc, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		c, err := af.NewConnRoute(nc, i%2 == 1, key)
		if err != nil {
			t.Fatal(err)
		}
		c.SetIOErrorHandler(func(*af.Conn, error) {})
		sc := clients[i]
		err = c.SetReconnect(af.ReconnectOptions{
			Redial:      dial,
			MaxAttempts: 12,
			Backoff:     10 * time.Millisecond,
			MaxBackoff:  200 * time.Millisecond,
			// Idempotent ops (the GetTime anchor) are retried without
			// surfacing ReconnectedError, so the hook is the reliable
			// reconnect observer.
			OnResync: func(*af.Conn) { sc.note(func(s *soakClient) { s.resyncs++ }) },
		})
		if err != nil {
			t.Fatal(err)
		}
		ac, err := c.CreateAC(0, af.ACPreemption|af.ACPlayGain, af.ACAttributes{Preempt: true, PlayGain: -6})
		if err != nil {
			t.Fatal(err)
		}
		conns[i], acs[i] = c, ac
	}

	var cut atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// A poller holds every live snapshot, through the kill and the
	// failovers, to the laws' live forms.
	stopPoll, polled := make(chan struct{}), make(chan struct{})
	var polls int
	var liveErr error
	go func() {
		defer close(polled)
		for ; liveErr == nil; polls++ {
			select {
			case <-stopPoll:
				return
			case <-time.After(time.Millisecond):
			}
			liveErr = router.Snapshot().Check(false)
		}
	}()
	for i := range clients {
		wg.Add(1)
		go func(sc *soakClient, c *af.Conn, ac *af.AC) {
			defer wg.Done()
			data := make([]byte, chunk)
			for j := range data {
				data[j] = byte(j*5 + 1)
			}
			rec := make([]byte, 64)
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				// Anchor every play just ahead of live device time so the
				// stream survives arbitrary device-time jumps across a
				// failover without parking.
				now, err := ac.GetTime()
				if err == nil {
					_, err = ac.PlaySamples(now.Add(chunk), data)
				}
				if err == nil && iter%8 == 3 {
					_, _, err = ac.RecordSamples(now, rec, false)
					if err == nil {
						sc.note(func(s *soakClient) { s.records++ })
					}
				}
				if err == nil && iter%32 == 17 {
					err = ac.ChangeAttributes(af.ACPlayGain, af.ACAttributes{PlayGain: -3})
				}
				switch {
				case err == nil:
					sc.note(func(s *soakClient) {
						s.plays++
						if cut.Load() {
							s.playsAfterCut++
						}
					})
				case isReconnected(err):
					// Tolerated: the session was re-established (counted by
					// the OnResync hook); the next iteration re-anchors.
				default:
					sc.note(func(s *soakClient) {
						if s.hardErr == nil {
							s.hardErr = err
						}
					})
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(clients[i], conns[i], acs[i])
	}

	// Phase 1 — warm up: every client must stream before the crash.
	waitFor(t, 10*time.Second, "all clients streaming", func() bool {
		for _, sc := range clients {
			sc.mu.Lock()
			ok := sc.plays >= 3
			sc.mu.Unlock()
			if !ok {
				return false
			}
		}
		return true
	})

	// Phase 2 — kill the most loaded backend mid-stream.
	victim := 0
	counts := make([]int, nBackends)
	for _, sc := range clients {
		counts[sc.owner]++
	}
	for i, n := range counts {
		if n > counts[victim] {
			victim = i
		}
	}
	if counts[victim] == 0 {
		t.Fatalf("seed %d placed no clients on any backend? placement %v", seed, counts)
	}
	victims := counts[victim]
	proxiedVictims, redirected := 0, 0
	for _, sc := range clients {
		if sc.proxied && sc.owner == victim {
			proxiedVictims++
		}
		if !sc.proxied {
			redirected++
		}
	}
	severed := backends[victim].Brk.Kill()
	cut.Store(true)
	t.Logf("seed %d: killed backend %d (%d clients placed, %d conns severed), placement %v",
		seed, victim, victims, severed, counts)

	// Phase 3 — recovery window: every victim client must resume
	// streaming (a successful play after the cut implies its replayed AC
	// works on the standby).
	waitFor(t, 20*time.Second, "victim clients resumed on a standby", func() bool {
		for _, sc := range clients {
			sc.mu.Lock()
			ok := sc.hardErr != nil || sc.playsAfterCut >= 3
			sc.mu.Unlock()
			if !ok {
				return false
			}
		}
		return true
	})

	// Let the fleet settle, then check placement: the victim serves
	// nobody; each survivor serves its original clients plus the victim
	// clients whose next live owner it is. The router's probe connection
	// is short-lived, so the wait ends between probes.
	expected := make([]int, nBackends)
	for _, sc := range clients {
		expected[dir.LookupLive(sc.key, func(i int) bool { return i != victim })]++
	}
	waitFor(t, 10*time.Second, "sessions settled on standbys", func() bool {
		for i, b := range backends {
			active := b.Srv.Snapshot().ActiveClients
			if i == victim {
				if active != 0 {
					return false
				}
				continue
			}
			if active != int64(expected[i]) {
				return false
			}
		}
		return true
	})

	// Phase 4 — post-failover health: streams keep flowing after resume.
	time.Sleep(300 * time.Millisecond)

	close(stop)
	wg.Wait()

	resumedResyncs := 0
	for i, sc := range clients {
		sc.mu.Lock()
		if sc.hardErr != nil {
			t.Errorf("client %d (%s, owner %d): hard error above SetReconnect: %v",
				i, sc.key, sc.owner, sc.hardErr)
		}
		if sc.owner == victim {
			if sc.resyncs == 0 {
				t.Errorf("client %d on killed backend %d never resynced", i, victim)
			}
			if sc.playsAfterCut < 3 {
				t.Errorf("client %d on killed backend %d did not resume: %d plays after cut",
					i, victim, sc.playsAfterCut)
			}
			resumedResyncs += sc.resyncs
		} else if sc.resyncs != 0 {
			t.Errorf("client %d on surviving backend %d resynced %d times; failover leaked into healthy sessions",
				i, sc.owner, sc.resyncs)
		}
		if sc.records == 0 {
			t.Errorf("client %d recorded nothing", i)
		}
		sc.mu.Unlock()
	}

	for _, c := range conns {
		c.Close()
	}

	// Drain the router and check the laws exactly.
	var snap aserver.RouterSnapshot
	waitFor(t, 10*time.Second, "router drained", func() bool {
		snap = router.Snapshot()
		return snap.SessionsActive == 0
	})
	close(stopPoll)
	<-polled
	if liveErr != nil {
		t.Errorf("live snapshot %d: %v", polls, liveErr)
	}
	if err := snap.Check(true); err != nil {
		t.Errorf("drained: %v", err)
	}
	// At least every severed proxied victim session must have started a
	// failover. Every redirected client was redirected at least once.
	if snap.FailoversStarted < uint64(proxiedVictims) {
		t.Errorf("failovers_started %d < %d proxied victim sessions", snap.FailoversStarted, proxiedVictims)
	}
	if snap.Redirects < uint64(redirected) {
		t.Errorf("redirects %d < %d redirected clients", snap.Redirects, redirected)
	}
	for i, b := range snap.Backends {
		if i == victim && b.State != "down" {
			t.Errorf("killed backend %d state %q, want down", i, b.State)
		}
		if i != victim && b.State != "healthy" {
			t.Errorf("surviving backend %d state %q, want healthy", i, b.State)
		}
	}
	t.Logf("seed %d: routes %d redirects %d resyncs %d (%d proxied victims) | failovers %d closed %d/%d | proxied %d+%d bytes",
		seed, snap.Routes, snap.Redirects, resumedResyncs, proxiedVictims,
		snap.FailoversStarted, snap.ClosedClient, snap.ClosedBackend,
		snap.ProxiedBytesC2B, snap.ProxiedBytesB2C)

	router.Close()
	for _, b := range backends {
		b.Brk.Close()
		b.Srv.Close()
	}

	// Goroutines settle: pumps, probers, backend readers all gone.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		stack := make([]byte, 1<<20)
		stack = stack[:runtime.Stack(stack, true)]
		t.Errorf("goroutines did not settle: %d > baseline %d\n%s", n, baseline, stack)
	}
}

// passConn passes a conn through untouched; af cannot follow a setup
// redirect over a transport it did not dial itself, so it is proxied.
type passConn struct{ net.Conn }

// isReconnected reports the one error shape the soak tolerates.
func isReconnected(err error) bool {
	var re *af.ReconnectedError
	return errors.As(err, &re)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
