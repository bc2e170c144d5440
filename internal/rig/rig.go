// Package rig builds every system that tests, benchmarks and afperf run
// against, outside aserver's own package tests and the ledger's bench.
//
// A Rig is the measurement fixture: an in-process AudioFile server with a
// manual-clock CODEC device (so nothing ever waits on wall time), and a
// client connection over a choice of transports standing in for the
// paper's six host configurations — local Unix socket, TCP loopback, and
// TCP with an injected round-trip delay: a stall before every write.
//
// Soaks assemble their own systems from the fixture parts: Server, Listen,
// Client, Step and NewBackend. A soak then holds only its scenario, its
// seed and its assertions.
package rig

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/internal/metrics"
	"audiofile/internal/netsim"
	"audiofile/internal/vdev"
)

// Config selects the transport between client and server.
type Config struct {
	Name      string        // label in reports
	Transport string        // "pipe", "unix", or "tcp"
	RTT       time.Duration // injected round-trip delay (socket transports)
	// RealTime runs the CODEC device on the wall clock; Clk is then nil.
	RealTime bool
}

// StandardConfigs are the analogues of the paper's configurations:
// in-process and Unix-socket stand in for "local client & server"; TCP
// loopback for "networked on one Ethernet"; the delayed variants for
// slower or wider networks.
func StandardConfigs() []Config {
	return []Config{
		{Name: "local (unix)", Transport: "unix"},
		{Name: "local (pipe)", Transport: "pipe"},
		{Name: "net (tcp)", Transport: "tcp"},
		{Name: "net (tcp+1ms)", Transport: "tcp", RTT: time.Millisecond},
		{Name: "net (tcp+4ms)", Transport: "tcp", RTT: 4 * time.Millisecond},
	}
}

// Rig is one server+client measurement fixture.
type Rig struct {
	Srv  *aserver.Server
	Conn *af.Conn
	Clk  *vdev.ManualClock
	AC   *af.AC

	dir string
}

// Open builds a rig for a config. The CODEC device's clock is manual
// unless cfg.RealTime: the harness advances it explicitly, so requests
// are pure request/response and measurements are not polluted by waiting
// on audio time.
func Open(cfg Config) (*Rig, error) {
	codec := aserver.DeviceSpec{Kind: "codec", Name: "codec0", Loopback: true}
	r := &Rig{}
	if !cfg.RealTime {
		r.Clk = vdev.NewManualClock(8000)
		codec.Clock = r.Clk
	}
	srv, err := aserver.New(aserver.Options{Devices: []aserver.DeviceSpec{codec}})
	if err != nil {
		return nil, err
	}
	r.Srv = srv
	if err := r.dial(cfg); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// New is Open for a test or benchmark: it fails tb on error and closes
// the rig when tb ends, dumping the server's events if tb failed.
func New(tb testing.TB, cfg Config) *Rig {
	tb.Helper()
	r, err := Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(r.Close)
	DumpEvents(tb, func() metrics.LogSnapshot { return r.Srv.Snapshot().Events })
	return r
}

// DumpEvents has tb, when it ends failed, log the events events returns,
// one line each with its sequence number: what happened, in what order.
// Server and New call it for their server; a router soak calls it once,
// for its router.
func DumpEvents(tb testing.TB, events func() metrics.LogSnapshot) {
	tb.Cleanup(func() {
		if !tb.Failed() {
			return
		}
		log := events()
		tb.Logf("event log: %d events, %d overwritten", len(log.Events), log.Lost)
		for _, ev := range log.Events {
			tb.Logf("event #%d %s %s %s: %s", ev.Seq, ev.When.Format("15:04:05.000000"), ev.Kind, ev.Subject, ev.Detail)
		}
	})
}

// dial connects the rig's client over cfg's transport and creates its
// context on the CODEC device.
func (r *Rig) dial(cfg Config) error {
	var nc net.Conn
	switch cfg.Transport {
	case "pipe":
		nc = r.Srv.DialPipe()
	case "unix", "tcp":
		if cfg.Transport == "unix" {
			dir, err := os.MkdirTemp("", "afrig")
			if err != nil {
				return err
			}
			r.dir = dir
		}
		l, err := r.Srv.Listen(cfg.Transport, localAddr(cfg.Transport, r.dir))
		if err != nil {
			return err
		}
		if nc, err = net.Dial(cfg.Transport, l.Addr().String()); err != nil {
			return err
		}
		if cfg.RTT > 0 {
			// Each round trip in these lockstep measurements starts with
			// one client write, so a stall before every write charges
			// each round trip one RTT.
			nc = netsim.NewFaultConn(nc, netsim.FaultConfig{StallEveryBytes: 1, Stall: cfg.RTT})
		}
	default:
		return fmt.Errorf("rig: unknown transport %q", cfg.Transport)
	}
	conn, err := af.NewConn(nc)
	if err != nil {
		nc.Close()
		return err
	}
	r.Conn = conn
	r.AC, err = conn.CreateAC(0, 0, af.ACAttributes{})
	return err
}

// Close tears the rig down.
func (r *Rig) Close() {
	if r.Conn != nil {
		r.Conn.Close()
	}
	r.Srv.Close()
	if r.dir != "" {
		os.RemoveAll(r.dir) //nolint:errcheck
	}
}

// PrimeRecord marks the context recording and advances device time far
// enough that the whole record buffer holds valid (captured) data, so
// record requests for the recent past hit in the buffer and never block.
func (r *Rig) PrimeRecord() error {
	now, err := r.AC.GetTime()
	if err != nil {
		return err
	}
	if _, _, err := r.AC.RecordSamples(now.Add(-4), make([]byte, 4), false); err != nil {
		return err
	}
	// Walk time forward one hardware window at a time, updating after
	// each step, until the 4-second buffer has been filled twice over.
	for i := 0; i < 150; i++ {
		r.Clk.Advance(512)
		r.Srv.Sync()
	}
	return nil
}

// localAddr is where a rig listens on network: "unix" at af.sock in dir,
// "tcp" on an ephemeral loopback port.
func localAddr(network, dir string) string {
	if network == "unix" {
		return filepath.Join(dir, "af.sock")
	}
	return "127.0.0.1:0"
}

// Server starts a server with opts and closes it when tb ends, dumping
// its events if tb failed.
func Server(tb testing.TB, opts aserver.Options) *aserver.Server {
	tb.Helper()
	srv, err := aserver.New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Close)
	DumpEvents(tb, func() metrics.LogSnapshot { return srv.Snapshot().Events })
	return srv
}

// Listen starts srv listening on network, "unix" or "tcp", and returns
// the address to dial. The listener closes with the server.
func Listen(tb testing.TB, srv *aserver.Server, network string) string {
	tb.Helper()
	l, err := srv.Listen(network, localAddr(network, tb.TempDir()))
	if err != nil {
		tb.Fatal(err)
	}
	return l.Addr().String()
}

// Client opens an AF connection over nc whose transport errors are
// silent: a soak's clients meet their cuts as call errors.
func Client(nc net.Conn) (*af.Conn, error) {
	c, err := af.NewConn(nc)
	if err != nil {
		return nil, err
	}
	c.SetIOErrorHandler(func(*af.Conn, error) {})
	return c, nil
}

// stepFrames is how far a Stepper moves its clocks per step.
const stepFrames = 256

// Stepper moves manual clocks in the background; see Step.
type Stepper struct {
	frames atomic.Int64
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once
}

// Step starts a goroutine that, until Stop or the end of tb, advances
// every clock by 256 frames, runs a server update and sleeps every. Call
// it after Server, so that it stops before the server closes.
func Step(tb testing.TB, srv *aserver.Server, every time.Duration, clocks ...*vdev.ManualClock) *Stepper {
	s := &Stepper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			select {
			case <-s.stop:
				return
			default:
			}
			for _, clk := range clocks {
				clk.Advance(stepFrames)
			}
			s.frames.Add(stepFrames)
			srv.Sync()
			time.Sleep(every)
		}
	}()
	tb.Cleanup(s.Stop)
	return s
}

// Frames is how far each clock has been stepped.
func (s *Stepper) Frames() int64 { return s.frames.Load() }

// Stop ends the stepping and waits for the goroutine. Idempotent.
func (s *Stepper) Stop() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// FirstError keeps the first error any of a soak's goroutines reports,
// whatever its type; later ones are dropped. The zero value is ready.
type FirstError struct {
	mu  sync.Mutex
	err error
}

// Fail keeps err if it is the first; nil is no error.
func (f *FirstError) Fail(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// Err returns the kept error.
func (f *FirstError) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Backend is one server of a routed fleet, served through a Breaker so
// that a test can crash it.
type Backend struct {
	Srv *aserver.Server
	Brk *netsim.Breaker
}

// NewBackend starts a server with one CODEC device on clk, served on
// network through a Breaker. Both close when tb ends.
func NewBackend(tb testing.TB, network string, clk vdev.Clock) *Backend {
	tb.Helper()
	srv := Server(tb, aserver.Options{
		Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Clock: clk}},
	})
	inner, err := net.Listen(network, localAddr(network, tb.TempDir()))
	if err != nil {
		tb.Fatal(err)
	}
	brk := netsim.NewBreaker(inner)
	go srv.Serve(brk) //nolint:errcheck — ends when the breaker closes
	tb.Cleanup(func() { brk.Close() })
	return &Backend{Srv: srv, Brk: brk}
}
