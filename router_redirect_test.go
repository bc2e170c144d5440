// Placement by name: a route-keyed af client on a socket it dialed itself
// is answered with a setup redirect and sets its session up on the owning
// backend directly. These tests pin where such a session lands: on the
// owner, on the standby when the owner is dead but not yet probed, and
// never on a backend the client could not dial itself.
package audiofile

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/internal/rig"
	"audiofile/internal/vdev"
)

// redirectFleet is two backends behind a router that probes each once,
// at start, and never again: the directory's verdicts are the ones a
// test arranges.
func redirectFleet(t *testing.T, network string) (*aserver.Router, []*rig.Backend) {
	t.Helper()
	var bs []*rig.Backend
	var addrs []string
	for i := 0; i < 2; i++ {
		b := rig.NewBackend(t, network, vdev.NewManualClock(8000))
		bs = append(bs, b)
		addrs = append(addrs, b.Brk.Addr().String())
	}
	r, err := aserver.NewRouter(aserver.RouterOptions{
		Backends:      addrs,
		Names:         []string{"backend0", "backend1"},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	waitFor(t, 10*time.Second, "the start-up probes", func() bool {
		for _, b := range r.Snapshot().Backends {
			if b.Probes == 0 || b.ProbeFailures != 0 {
				return false
			}
		}
		return true
	})
	return r, bs
}

// redirectKey is the routing key the tests place; seeded by ROUTER_SEED.
func redirectKey(t *testing.T) string {
	return fmt.Sprintf("redirect-%d", routerSeed(t))
}

// openRouted opens a keyed session on the router at network/addr and
// proves it works: a GetTime and a play.
func openRouted(t *testing.T, network, addr, key string) *af.Conn {
	t.Helper()
	c, err := af.Open(network + ":" + addr + "#" + key)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ac, err := c.CreateAC(0, af.ACPreemption, af.ACAttributes{Preempt: true})
	if err != nil {
		t.Fatal(err)
	}
	now, err := ac.GetTime()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ac.PlaySamples(now.Add(256), make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	return c
}

// settled waits until backend i serves want[i] clients.
func settled(t *testing.T, bs []*rig.Backend, want ...int64) {
	t.Helper()
	waitFor(t, 10*time.Second, fmt.Sprintf("backend sessions %v", want), func() bool {
		for i, b := range bs {
			if b.Srv.Snapshot().ActiveClients != want[i] {
				return false
			}
		}
		return true
	})
}

// routerCounts waits until the router has counted redirects redirects
// and routes routes, with sessions proxied sessions active, and no other
// setup, refused or in flight: a counter is bumped after the reply it
// counts is sent.
func routerCounts(t *testing.T, r *aserver.Router, redirects, routes uint64, sessions int64) aserver.RouterSnapshot {
	t.Helper()
	var s aserver.RouterSnapshot
	waitFor(t, 10*time.Second, fmt.Sprintf("%d redirects, %d routes, %d sessions active", redirects, routes, sessions), func() bool {
		s = r.Snapshot()
		return s.Redirects == redirects && s.Routes == routes && s.SessionsActive == sessions &&
			s.Accepted == redirects+routes && s.RouteErrors == 0 && s.Check(false) == nil
	})
	return s
}

// TestRouterRedirect: a keyed client on plain TCP is redirected and its
// session runs on the owner, with nothing through the router.
func TestRouterRedirect(t *testing.T) {
	r, bs := redirectFleet(t, "tcp")
	rl, err := r.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	key := redirectKey(t)
	owner := r.Directory().Lookup(key)
	openRouted(t, "tcp", rl.Addr().String(), key)

	want := []int64{0, 0}
	want[owner] = 1
	settled(t, bs, want...)
	routerCounts(t, r, 1, 0, 0)
}

// TestRouterRedirectFallback: the owner is healthy in the directory but
// its listener drops every connection. The redirected client's direct
// setup fails, it falls back to a proxied setup, and the router's open
// walks past the owner, counting a dial error, to the standby.
func TestRouterRedirectFallback(t *testing.T) {
	r, bs := redirectFleet(t, "tcp")
	rl, err := r.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	key := redirectKey(t)
	owner := r.Directory().Lookup(key)
	bs[owner].Brk.Kill()
	openRouted(t, "tcp", rl.Addr().String(), key)

	want := []int64{1, 1}
	want[owner] = 0
	settled(t, bs, want...)
	if s := routerCounts(t, r, 1, 1, 1); s.Backends[owner].DialErrors == 0 {
		t.Error("the dead owner's failed open was not counted as a dial error")
	}
}

// TestRouterRedirectSameNetwork: a backend is handed out only over the
// network the client reached the router by. A TCP client of unix-socket
// backends is proxied; a unix-socket client of the same router is
// redirected.
func TestRouterRedirectSameNetwork(t *testing.T) {
	r, bs := redirectFleet(t, "unix")
	key := redirectKey(t)
	owner := r.Directory().Lookup(key)
	want := []int64{0, 0}

	tl, err := r.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	openRouted(t, "tcp", tl.Addr().String(), key)
	want[owner]++
	settled(t, bs, want...)
	routerCounts(t, r, 0, 1, 1) // proxied

	ul, err := r.Listen("unix", filepath.Join(t.TempDir(), "router"))
	if err != nil {
		t.Fatal(err)
	}
	openRouted(t, "unix", ul.Addr().String(), key)
	want[owner]++
	settled(t, bs, want...)
	routerCounts(t, r, 1, 1, 1) // redirected
}
