package aserver

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"audiofile/internal/health"
	"audiofile/internal/metrics"
	"audiofile/internal/proto"
)

// Fleet routing. One afd owns one machine's devices; a Router fronts a
// fleet of them behind a single AF endpoint and places sessions by name.
// It speaks just enough of the protocol to read the client's setup
// request and hash the session's routing key (carried in the setup auth
// fields, see proto.RouteAuthName) onto a consistent-hash Directory of
// backends. Then it either
//
//   - redirects: a client that advertised proto.RouteDirectAuthName and
//     can reach the key's live owner itself (over its own network, and
//     never at a loopback address from another host) gets a setup
//     redirect naming the owner's address and sets up there directly,
//     so the router is not in its data path; or
//   - proxies: for any other client it opens the session on the owner
//     and is from then on a pure byte splice. The backend's setup reply
//     and every subsequent message forward verbatim in both directions
//     through pooled buffers, so the proxied hot path adds no per-chunk
//     allocations and never parses the stream.
//
// Health is one internal/health Machine per backend, the lineserver
// backend's: a per-backend prober runs one fresh-connection probe (setup
// plus a GetTime round trip) every ProbeInterval and reports it as a
// Success or Failure; FailThreshold consecutive failures start a resync
// whose heal is the same probe. The directory places new sessions only
// on healthy backends.
//
// Failover: when a session's backend side fails, the router must decide
// whether the backend closed this one session on purpose (an Overload
// eviction, whose goodbye has already been spliced through to the
// client) or died. It cannot tell from the spliced bytes, so it asks the
// backend directly — one synchronous confirm probe. A backend that
// answers means a deliberate close: the router just closes the client
// side. A backend that doesn't is escalated at once, and the router
// starts a failover: if the directory still has a live standby for the
// session's key, it sends the client a typed ErrRedirect goodbye and
// counts the failover completed, else abandoned. A redirect-aware client
// (af.SetReconnect) redials the router, carries the same routing key in
// its setup, lands on the standby, and replays its audio contexts — the
// router itself holds no session state to migrate. A redirected session
// fails over the same way without the goodbye: its direct transport
// dies, the client redials the router and is placed again. If the router
// has not yet seen the death, the client's direct setup at the dead
// owner fails and it falls back to a proxied setup, whose open walks
// past the owner to the standby.
//
// Counter ownership: spawn counts accepted once per client conn, and its
// handler counts exactly one of routes, redirects and routeErrors. For
// each proxied session (a route) exactly one of closedClient,
// closedBackend, or failoversStarted is incremented by the pump that
// loses the session (a CAS picks the single classifier), and every
// failoversStarted is followed by exactly one of failoversCompleted or
// failoversAbandoned before the session is torn down. A redirected
// session appears in no counter after redirects: the router never sees
// its end. The laws this gives are RouterSnapshot.Check.

// RouterOptions configures a Router.
type RouterOptions struct {
	// Backends are the afd dial targets, one per backend: "host:port"
	// dials TCP, an address containing '/' dials a Unix socket.
	Backends []string
	// Names optionally gives the directory names hashed onto the ring
	// (stable identities that survive an address change); defaults to
	// Backends.
	Names []string
	// Replicas is the virtual-point count per backend on the hash ring
	// (default DefaultDirectoryReplicas).
	Replicas int

	// ProbeInterval is the health-check period (default 1s);
	// ProbeTimeout bounds one probe round trip (default 2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailThreshold is the consecutive probe or dial failures that take a
	// healthy backend out of placement and start its resync (default 3).
	FailThreshold int

	// DialTimeout bounds a backend dial for a new session (default 5s).
	DialTimeout time.Duration
	// ClientWriteStall is the rolling write deadline toward clients: a
	// client that stops reading for this long loses its session instead
	// of pinning a pump goroutine (default 30s). The backend's own
	// overload policy usually fires first.
	ClientWriteStall time.Duration

	// Logf receives progress messages; nil discards them.
	Logf func(format string, args ...any)
}

// Router is an AF-protocol session router fronting a fleet of afds.
type Router struct {
	opts RouterOptions
	dir  *Directory
	rm   routerMetrics

	backends []*routerBackend

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{} // client conns, and backend conns once dialed
	closed    bool

	done chan struct{}
	wg   sync.WaitGroup
}

// routerMetrics is the router-wide metric set, exported by Snapshot.
type routerMetrics struct {
	accepted       metrics.Counter
	routes         metrics.Counter
	redirects      metrics.Counter
	routeErrors    metrics.Counter
	sessionsActive metrics.Gauge

	bytesC2B metrics.Counter // client→backend bytes forwarded
	bytesB2C metrics.Counter // backend→client bytes forwarded

	closedClient       metrics.Counter
	closedBackend      metrics.Counter
	failoversStarted   metrics.Counter
	failoversCompleted metrics.Counter
	failoversAbandoned metrics.Counter
}

type routerBackend struct {
	r             *Router
	index         int
	name          string
	network, addr string
	health        *health.Machine

	// This backend's metrics, exported as its RouterBackendStats.
	sessions   metrics.Gauge
	probes     metrics.Counter
	probeFails metrics.Counter
	dialErrors metrics.Counter // failed session dials and setup exchanges
}

// NewRouter builds a router over the given backends and starts its
// health probers. All backends start healthy (optimistically routable);
// FailThreshold failed probes or dials take a dead one out of placement.
func NewRouter(opts RouterOptions) (*Router, error) {
	if len(opts.Backends) == 0 {
		return nil, errors.New("aserver: router needs at least one backend")
	}
	if len(opts.Names) != 0 && len(opts.Names) != len(opts.Backends) {
		return nil, errors.New("aserver: router Names must match Backends")
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = time.Second
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 2 * time.Second
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	if opts.ClientWriteStall <= 0 {
		opts.ClientWriteStall = 30 * time.Second
	}
	names := opts.Names
	if len(names) == 0 {
		names = opts.Backends
	}
	r := &Router{
		opts:  opts,
		dir:   NewDirectory(names, opts.Replicas),
		conns: make(map[net.Conn]struct{}),
		done:  make(chan struct{}),
	}
	for i, addr := range opts.Backends {
		network := "tcp"
		if strings.Contains(addr, "/") {
			network = "unix"
		}
		b := &routerBackend{
			r:       r,
			index:   i,
			name:    names[i],
			network: network,
			addr:    addr,
		}
		b.health = health.New(health.Config{
			Threshold: opts.FailThreshold,
			Heal:      b.probe,
			OnEvent: func(ev health.Event) {
				r.logf("arouter: backend %s -> %s (%s)", b.name, ev.To, ev.Reason)
			},
		})
		r.backends = append(r.backends, b)
		r.wg.Add(1)
		go b.prober()
	}
	return r, nil
}

func (r *Router) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// Directory returns the router's placement directory (read-only).
func (r *Router) Directory() *Directory { return r.dir }

// Serve accepts and proxies sessions from l until the listener or the
// router closes.
func (r *Router) Serve(l net.Listener) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return errors.New("aserver: router closed")
	}
	r.listeners = append(r.listeners, l)
	r.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-r.done:
				return nil
			default:
				return err
			}
		}
		r.spawn(conn)
	}
}

// spawn runs a new client connection's handler on its own goroutine —
// or, once the router is closed, closes it: Close waits on wg, so every
// Add must be ordered before its Wait, which mu does.
func (r *Router) spawn(conn net.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		conn.Close()
		return
	}
	r.rm.accepted.Inc()
	r.conns[conn] = struct{}{}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer r.untrack(conn)
		r.handleConn(conn)
	}()
}

// track adds a session's backend conn to those Close closes, or reports
// false once the router is closed: a stalled backend blocks both pumps
// (a Write with no deadline, a Read), and only closing its conn frees them.
func (r *Router) track(bc net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.conns[bc] = struct{}{}
	return true
}

func (r *Router) untrack(c net.Conn) {
	r.mu.Lock()
	delete(r.conns, c)
	r.mu.Unlock()
}

// Listen starts serving on the given network address in the background.
func (r *Router) Listen(network, addr string) (net.Listener, error) {
	l, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	go r.Serve(l) //nolint:errcheck — ends when the listener closes
	return l, nil
}

// DialPipe returns an in-process client connection to the router.
func (r *Router) DialPipe() net.Conn {
	cc, sc := net.Pipe()
	r.spawn(sc)
	return cc
}

// Close shuts the router down: listeners close, every client conn and
// every session's backend conn closes, the probers and health machines
// stop. Blocks until every goroutine has finished.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.done)
	for _, l := range r.listeners {
		l.Close()
	}
	for c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
	for _, b := range r.backends {
		b.health.Close()
	}
}

// proxyBufBytes is the splice buffer size; two per session, pooled.
const proxyBufBytes = 32 << 10

var proxyBufPool = sync.Pool{
	New: func() any { b := make([]byte, proxyBufBytes); return &b },
}

// refuse sends a failed setup reply to the client; best-effort.
func refuse(conn net.Conn, order binary.ByteOrder, reason string) {
	rep := proto.SetupReply{
		Success: false,
		Reason:  reason,
		Major:   proto.ProtocolMajor,
		Minor:   proto.ProtocolMinor,
	}
	rep.Send(conn, order) //nolint:errcheck — the client is being turned away
}

// handleConn reads the client's setup and places the session: a setup
// redirect when the client can follow one, else a proxied session.
func (r *Router) handleConn(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(setupDeadline)) //nolint:errcheck
	setup, order, err := proto.ReadSetupRequest(conn)
	if err != nil {
		r.rm.routeErrors.Inc()
		conn.Close()
		return
	}
	key := ""
	direct := setup.AuthName == proto.RouteDirectAuthName
	if direct || setup.AuthName == proto.RouteAuthName {
		key = string(setup.AuthData)
	}
	if key == "" {
		// No routing key: spread by client address. Reconnects of the
		// same client may land elsewhere, which is fine — every backend
		// serves the session equally when the client didn't pin a key.
		key = conn.RemoteAddr().String()
	}
	if direct && r.redirect(conn, order, key) {
		return
	}

	backend, bc, rep := r.openFor(key, setup, order)
	if backend == nil {
		r.rm.routeErrors.Inc()
		refuse(conn, order, "no live backend for route")
		conn.Close()
		return
	}
	defer r.untrack(bc)
	// Relay the backend's setup reply as raw bytes, so the handshake a
	// routed client sees is byte-identical to a direct one.
	if _, err := conn.Write(rep); err != nil || rep[0] != 1 {
		r.rm.routeErrors.Inc()
		conn.Close()
		bc.Close()
		return
	}
	conn.SetDeadline(time.Time{}) //nolint:errcheck

	s := &rsession{
		r:       r,
		b:       backend,
		key:     key,
		client:  conn,
		backend: bc,
		order:   order,
	}

	r.rm.routes.Inc()
	r.rm.sessionsActive.Add(1)
	backend.sessions.Add(1)

	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		s.pumpClientToBackend()
	}()
	s.pumpBackendToClient()
}

// redirect answers a setup that advertised proto.RouteDirectAuthName
// with the address of the key's live owner, if the client can dial it
// itself, and closes the conn. It reports false, having sent nothing,
// when the session must be proxied instead.
func (r *Router) redirect(conn net.Conn, order binary.ByteOrder, key string) bool {
	idx := r.dir.LookupLive(key, func(i int) bool { return r.backends[i].health.Healthy() })
	if idx < 0 {
		return false
	}
	b := r.backends[idx]
	if !reachable(conn.RemoteAddr(), b.network, b.addr) {
		return false
	}
	rep := proto.SetupReply{
		RedirectNetwork: b.network,
		RedirectAddr:    b.addr,
		Major:           proto.ProtocolMajor,
		Minor:           proto.ProtocolMinor,
	}
	if err := rep.Send(conn, order); err != nil {
		r.rm.routeErrors.Inc()
	} else {
		r.rm.redirects.Inc()
	}
	conn.Close()
	return true
}

// reachable reports whether a client at client can dial network/addr
// itself: over the network it reached the router by, and — for TCP — not
// at an address that dials only the router's own host unless the client
// is on that host too.
func reachable(client net.Addr, network, addr string) bool {
	if client == nil || client.Network() != network {
		return false
	}
	if network != "tcp" {
		return true
	}
	ca, ok := client.(*net.TCPAddr)
	return ok && (ca.IP.IsLoopback() || !hostLocal(addr))
}

// hostLocal reports whether a TCP backend address names the router's own
// host: a loopback or unspecified IP, "localhost", or no host at all. An
// address that does not parse counts as local, so it is never handed out.
func hostLocal(addr string) bool {
	host, _, err := net.SplitHostPort(addr)
	if err != nil || host == "" || host == "localhost" {
		return true
	}
	ip := net.ParseIP(host)
	return ip != nil && (ip.IsLoopback() || ip.IsUnspecified())
}

// openFor resolves key through the directory and opens the session on
// the chosen backend, returning the backend's setup reply as raw bytes.
// It walks the failover chain on any failure before that reply, so a
// freshly dead (not yet probed) backend — refusing dials, or accepting
// and dropping them — doesn't refuse the session.
func (r *Router) openFor(key string, setup *proto.SetupRequest, order binary.ByteOrder) (*routerBackend, net.Conn, []byte) {
	tried := make(map[int]bool)
	for range r.backends {
		idx := r.dir.LookupLive(key, func(i int) bool {
			return !tried[i] && r.backends[i].health.Healthy()
		})
		if idx < 0 {
			return nil, nil, nil
		}
		tried[idx] = true
		b := r.backends[idx]
		bc, rep, err := b.open(setup, order)
		switch {
		case err == nil:
			return b, bc, rep
		case errors.Is(err, net.ErrClosed): // Close cut the open short
			return nil, nil, nil
		}
		b.dialErrors.Inc()
		b.health.Failure()
		r.logf("arouter: dial %s (%s): %v", b.name, b.addr, err)
	}
	return nil, nil, nil
}

// open dials the backend, tracked so Close can cut it, forwards the
// client's setup verbatim (the backend ignores the route auth fields) and
// reads the backend's setup reply, parsing only its 8-byte header for the
// length.
func (b *routerBackend) open(setup *proto.SetupRequest, order binary.ByteOrder) (net.Conn, []byte, error) {
	bc, err := net.DialTimeout(b.network, b.addr, b.r.opts.DialTimeout)
	if err != nil {
		return nil, nil, err
	}
	if !b.r.track(bc) {
		bc.Close()
		return nil, nil, net.ErrClosed
	}
	bc.SetDeadline(time.Now().Add(setupDeadline)) //nolint:errcheck
	rep := make([]byte, 8)
	err = setup.Send(bc)
	if err == nil {
		_, err = io.ReadFull(bc, rep)
	}
	if err == nil {
		rep = append(rep, make([]byte, int(order.Uint16(rep[6:]))*4)...)
		_, err = io.ReadFull(bc, rep[8:])
	}
	if err != nil {
		b.r.untrack(bc)
		bc.Close()
		return nil, nil, err
	}
	bc.SetDeadline(time.Time{}) //nolint:errcheck
	return bc, rep, nil
}

// rsession is one proxied session: a client conn, a backend conn, and
// two pump goroutines splicing between them.
type rsession struct {
	r       *Router
	b       *routerBackend
	key     string
	client  net.Conn
	backend net.Conn
	order   binary.ByteOrder

	// classified flips once, in the pump that loses the session; the
	// winner increments exactly one close-classification counter and
	// releases the session's gauges.
	classified atomic.Bool
}

func (s *rsession) teardown() {
	s.client.Close()
	s.backend.Close()
}

// finish runs once (guarded by the classified CAS in the callers):
// close both sides, release the gauges.
func (s *rsession) finish() {
	s.teardown()
	s.r.rm.sessionsActive.Add(-1)
	s.b.sessions.Add(-1)
}

// pumpClientToBackend splices client bytes to the backend.
func (s *rsession) pumpClientToBackend() {
	bp := proxyBufPool.Get().(*[]byte)
	defer proxyBufPool.Put(bp)
	buf := *bp
	for {
		n, rerr := s.client.Read(buf)
		if n > 0 {
			if _, werr := s.backend.Write(buf[:n]); werr != nil {
				s.backendFailed(false)
				return
			}
			s.r.rm.bytesC2B.Add(uint64(n))
		}
		if rerr != nil {
			s.clientGone()
			return
		}
	}
}

// pumpBackendToClient splices backend bytes to the client under a
// rolling write deadline, so a client that stops reading loses its
// session instead of pinning the pump.
func (s *rsession) pumpBackendToClient() {
	bp := proxyBufPool.Get().(*[]byte)
	defer proxyBufPool.Put(bp)
	buf := *bp
	stall := s.r.opts.ClientWriteStall
	for {
		n, rerr := s.backend.Read(buf)
		if n > 0 {
			s.client.SetWriteDeadline(time.Now().Add(stall)) //nolint:errcheck
			if _, werr := s.client.Write(buf[:n]); werr != nil {
				s.clientGone()
				return
			}
			s.r.rm.bytesB2C.Add(uint64(n))
		}
		if rerr != nil {
			s.backendFailed(true)
			return
		}
	}
}

// clientGone classifies the session as closed by the client side (the
// client hung up, or stopped reading past the stall deadline).
func (s *rsession) clientGone() {
	if !s.classified.CompareAndSwap(false, true) {
		s.teardown()
		return
	}
	s.r.rm.closedClient.Inc()
	s.finish()
}

// backendFailed handles a backend-side error: decide deliberate close vs
// backend death (one confirm probe), and on death start a failover.
// ownsClientWrites is true when called from the backend→client pump,
// the only goroutine allowed to write the redirect goodbye without
// racing proxied payload bytes.
func (s *rsession) backendFailed(ownsClientWrites bool) {
	if !s.classified.CompareAndSwap(false, true) {
		s.teardown()
		return
	}
	if s.r.confirmBackend(s.b) {
		// The backend is answering probes: it closed this session on
		// purpose (eviction, drain) and its goodbye — if any — has
		// already been spliced through. Not a failover.
		s.r.rm.closedBackend.Inc()
		s.finish()
		return
	}
	// Backend death. Increment started before the outcome counter, and
	// resolve the outcome before finish: the failover law.
	s.r.rm.failoversStarted.Inc()
	standby := s.r.dir.LookupLive(s.key, func(i int) bool {
		return i != s.b.index && s.r.backends[i].health.Healthy()
	})
	if standby >= 0 {
		if ownsClientWrites {
			s.sendRedirect()
		}
		s.r.rm.failoversCompleted.Inc()
		s.r.logf("arouter: failover %q: %s -> %s", s.key, s.b.name, s.r.backends[standby].name)
	} else {
		s.r.rm.failoversAbandoned.Inc()
		s.r.logf("arouter: failover %q abandoned: no live standby for %s", s.key, s.b.name)
	}
	s.finish()
}

// redirectGoodbyeTimeout bounds the redirect goodbye write, as the
// server's eviction goodbyeTimeout bounds its own.
const redirectGoodbyeTimeout = 250 * time.Millisecond

// sendRedirect writes the typed ErrRedirect goodbye that tells a
// redirect-aware client to redial and be re-placed. Best-effort: if the
// backend died mid-message the client's parser is already desynchronized
// and will reconnect off the transport error instead.
func (s *rsession) sendRedirect() {
	w := proto.Writer{Order: s.order}
	(&proto.ErrorMsg{Code: proto.ErrRedirect}).Encode(&w)
	s.client.SetWriteDeadline(time.Now().Add(redirectGoodbyeTimeout)) //nolint:errcheck
	s.client.Write(w.Buf)                                             //nolint:errcheck
}

// prober is the backend's detect loop: one probe per ProbeInterval, the
// first at once so a backend dead at startup starts failing within
// ProbeTimeout, not ProbeInterval.
func (b *routerBackend) prober() {
	defer b.r.wg.Done()
	t := time.NewTicker(b.r.opts.ProbeInterval)
	defer t.Stop()
	for {
		if b.probe() {
			b.health.Success()
		} else {
			b.health.Failure()
		}
		select {
		case <-b.r.done:
			return
		case <-t.C:
		}
	}
}

// probe is the router's one health check — the prober's, the confirm
// path's and the resync's heal: a fresh connection, the setup handshake
// and one GetTime round trip, all within ProbeTimeout.
func (b *routerBackend) probe() bool {
	b.probes.Inc()
	if err := probeAF(b.network, b.addr, b.r.opts.ProbeTimeout); err != nil {
		b.probeFails.Inc()
		return false
	}
	return true
}

// probeAF dials addr, handshakes, sends GetTime(device 0) and reads
// messages until its answer. Any answer — reply or protocol error —
// proves the backend is dispatching requests; a refused setup (draining,
// full) is alive but not placeable, so it fails the probe.
func probeAF(network, addr string, timeout time.Duration) error {
	c, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(timeout)) //nolint:errcheck
	setup := proto.SetupRequest{
		ByteOrder: proto.LittleEndianOrder,
		Major:     proto.ProtocolMajor,
		Minor:     proto.ProtocolMinor,
	}
	if err := setup.Send(c); err != nil {
		return err
	}
	br := bufio.NewReaderSize(c, 4096)
	rep, err := proto.ReadSetupReply(br, binary.LittleEndian)
	if err != nil {
		return err
	}
	if !rep.Success {
		return fmt.Errorf("backend refused setup: %s", rep.Reason)
	}
	w := proto.Writer{Order: binary.LittleEndian}
	if err := proto.AppendDeviceReq(&w, proto.OpGetTime, 0); err != nil {
		return err
	}
	if _, err := c.Write(w.Buf); err != nil {
		return err
	}
	const seq = 1 // the session's first request
	var msg proto.Message
	for {
		if err := proto.ReadMessageInto(br, binary.LittleEndian, &msg); err != nil {
			return err
		}
		if msg.Reply != nil && msg.Reply.Seq == seq {
			return nil
		}
		if msg.Error != nil && msg.Error.Seq == seq && !proto.IsGoodbye(msg.Error.Code) {
			return nil
		}
	}
}

// confirmBackend is the decide step for a backend-side session error:
// one synchronous probe. A backend already out of placement is not
// re-probed; a failing probe escalates it, so the directory and every
// other dying session see the verdict immediately.
func (r *Router) confirmBackend(b *routerBackend) bool {
	if !b.health.Healthy() {
		return false
	}
	if !b.probe() {
		b.health.Escalate("confirm probe failed")
		return false
	}
	b.health.Success()
	return true
}

// RouterBackendStats is one backend's health and traffic in a snapshot.
type RouterBackendStats struct {
	health.Stats
	Name          string `json:"name"`
	Addr          string `json:"addr"`
	Sessions      int64  `json:"sessions"`
	Probes        uint64 `json:"probes"`
	ProbeFailures uint64 `json:"probe_failures"`
	DialErrors    uint64 `json:"dial_errors"`
}

// RouterSnapshot is a consistent-enough view of the router's counters
// for Check: outcome counters are read before their antecedents.
type RouterSnapshot struct {
	Accepted       uint64 `json:"accepted"`
	Routes         uint64 `json:"routes"`
	Redirects      uint64 `json:"redirects"`
	RouteErrors    uint64 `json:"route_errors"`
	SessionsActive int64  `json:"sessions_active"`

	ProxiedBytesC2B uint64 `json:"proxied_bytes_c2b"`
	ProxiedBytesB2C uint64 `json:"proxied_bytes_b2c"`

	ClosedClient       uint64 `json:"closed_client"`
	ClosedBackend      uint64 `json:"closed_backend"`
	FailoversStarted   uint64 `json:"failovers_started"`
	FailoversCompleted uint64 `json:"failovers_completed"`
	FailoversAbandoned uint64 `json:"failovers_abandoned"`

	Backends []RouterBackendStats `json:"backends"`
}

// Check states the router's laws: every accepted conn is set up once —
// routed, redirected or refused; every route ends once — closed by
// either side or failed over; every failover ends once, completed or
// abandoned. Live, each left side runs ahead by the setups, sessions or
// failovers in flight; settled — the router drained (no setup in flight,
// sessions_active 0) or closed — they are equal. Then each backend's
// health law, which settles with no resync in flight.
func (s RouterSnapshot) Check(settled bool) error {
	errs := []error{
		metrics.Law("accepted = routes + redirects + route_errors",
			s.Accepted, s.Routes+s.Redirects+s.RouteErrors, settled),
		metrics.Law("routes = closed_client + closed_backend + failovers_started",
			s.Routes, s.ClosedClient+s.ClosedBackend+s.FailoversStarted, settled),
		metrics.Law("failovers_started = failovers_completed + failovers_abandoned",
			s.FailoversStarted, s.FailoversCompleted+s.FailoversAbandoned, settled),
	}
	for _, b := range s.Backends {
		if err := b.Check(settled); err != nil {
			errs = append(errs, fmt.Errorf("backend %s: %w", b.Name, err))
		}
	}
	return errors.Join(errs...)
}

// Snapshot copies the router's counters, in the read order that gives
// Check its live forms.
func (r *Router) Snapshot() RouterSnapshot {
	var s RouterSnapshot
	// Outcomes before antecedents: completed/abandoned before started,
	// all close classifications before routes, every setup outcome
	// before accepted.
	s.FailoversCompleted = r.rm.failoversCompleted.Load()
	s.FailoversAbandoned = r.rm.failoversAbandoned.Load()
	s.ClosedClient = r.rm.closedClient.Load()
	s.ClosedBackend = r.rm.closedBackend.Load()
	s.FailoversStarted = r.rm.failoversStarted.Load()
	s.SessionsActive = r.rm.sessionsActive.Load()
	s.Routes = r.rm.routes.Load()
	s.Redirects = r.rm.redirects.Load()
	s.RouteErrors = r.rm.routeErrors.Load()
	s.Accepted = r.rm.accepted.Load()
	s.ProxiedBytesC2B = r.rm.bytesC2B.Load()
	s.ProxiedBytesB2C = r.rm.bytesB2C.Load()
	for _, b := range r.backends {
		s.Backends = append(s.Backends, RouterBackendStats{
			Stats:         b.health.Stats(),
			Name:          b.name,
			Addr:          b.addr,
			Sessions:      b.sessions.Load(),
			Probes:        b.probes.Load(),
			ProbeFailures: b.probeFails.Load(),
			DialErrors:    b.dialErrors.Load(),
		})
	}
	return s
}

// StatsHandler mirrors Server.StatsHandler for the router: /stats serves
// the RouterSnapshot (astat -router consumes it).
func (r *Router) StatsHandler() http.Handler {
	return statsHandler(func() any { return r.Snapshot() })
}

// ListenStats serves the router stats endpoints on addr in the
// background (the arouter -stats flag).
func (r *Router) ListenStats(addr string) (net.Listener, error) {
	return listenStats(addr, r.StatsHandler())
}
