// Package aserver implements the AudioFile server: the device-independent
// audio (DIA) dispatcher, the task mechanism, host access control, atoms
// and properties, and the built-in device-dependent (DDA) backends over
// simulated hardware.
//
// Where the paper's DIA is one thread, this server is a set of locks:
// every request runs to completion on its connection's reader goroutine,
// under the lock its opTable row names. The control lock, Server.ctl,
// guards the genuinely global state (client registry, atoms, properties,
// host access, AC lifecycle); each root device gets an engine — a mutex
// plus one runtime timer (time.AfterFunc) — that owns its buffering
// state, periodic update, parked requests, and phone-line/patch pumps.
// PlaySamples, RecordSamples and GetTime take only the owning engine's
// lock, so independent devices are served in parallel. A due engine's
// pass runs on the goroutine its timer's fire starts and ends with it
// (scheduler.go): a server keeps no goroutine of its own and one per
// connection, its reader, regardless of device count. Per-connection FIFO
// order holds by construction — one goroutine dispatches a connection's
// requests, in order — and per-device serialization by the engine lock.
// Replies leave on that goroutine too, in one non-blocking write per run;
// a writer goroutine exists only while output waits that no run carries,
// a write that would block included. See DESIGN.md ("Threading model")
// for the invariants.
//
// A Server is embeddable: tests, benchmarks, and the example programs run
// one in-process and connect over Unix or TCP sockets (or a pipe).
package aserver

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"audiofile/internal/core"
	"audiofile/internal/health"
	"audiofile/internal/lineserver"
	"audiofile/internal/metrics"
	"audiofile/internal/phonesim"
	"audiofile/internal/proto"
	"audiofile/internal/sampleconv"
	"audiofile/internal/vdev"
)

// DeviceSpec describes one audio device to build at server startup.
type DeviceSpec struct {
	// Kind selects the device template: "codec" (8 kHz µ-law mono),
	// "phone" (codec wired to a simulated telephone line), or "hifi"
	// (stereo lin16, which also creates left and right mono sub-devices).
	Kind string
	// Name overrides the default device name.
	Name string
	// Rate overrides the sampling frequency (hifi only; codecs are 8 kHz).
	Rate int
	// BufSeconds overrides the ~4 s server buffer depth.
	BufSeconds float64
	// Clock overrides the device sample clock (tests use ManualClock).
	Clock vdev.Clock
	// PPM skews the default real-time clock, modeling crystal tolerance.
	PPM float64
	// Loopback wires the device's output to its input through a simulated
	// patch cable with LoopbackDelay frames of delay.
	Loopback      bool
	LoopbackDelay int
	// Sink and Source override the hardware's analog side (ignored for
	// "phone", whose line is both). A nil Sink discards; a nil Source
	// records silence.
	Sink   vdev.PlaySink
	Source vdev.RecordSource
	// Addr is the UDP address of a LineServer box (kind "lineserver").
	Addr string
	// LSNoExtrapolate disables wall-clock time extrapolation in the
	// LineServer backend (deterministic manual-clock tests).
	LSNoExtrapolate bool
}

// Options configures a Server.
type Options struct {
	// Vendor is the server identification string in the setup reply.
	Vendor string
	// Devices lists the devices to create; nil builds DefaultDevices().
	Devices []DeviceSpec
	// AccessControl enables host-based access control at startup.
	AccessControl bool
	// Logf prints the server's events, one line each; nil discards them
	// (the events stay in the log that Snapshot serves).
	Logf func(format string, args ...any)

	// Overload budgets (see overload.go and DESIGN.md, "Overload &
	// shutdown"). Zero selects the default; negative disables the bound.

	// MaxClients caps registered clients; registering past it sheds the
	// oldest-idle client. 0 = unlimited.
	MaxClients int
	// ClientQueueBytes is the per-client outgoing queue budget (default
	// 256 KiB), judged against the queue's level: marshaled bytes plus a
	// fixed overhead per message. A client over budget for longer than
	// EvictGrace is evicted with a typed Overload error.
	ClientQueueBytes int
	// EvictGrace is how long a client may stay over budget (default
	// 250ms).
	EvictGrace time.Duration
	// ServerQueueBytes bounds total queued bytes across all clients
	// (default 64 × ClientQueueBytes); exceeding it closes the largest
	// queue: an eviction if that client is over its own budget, else a
	// shed.
	ServerQueueBytes int64
	// FrameBytesCeiling bounds the ingress bytes the pool has lent
	// (default 16 MiB): a buffer per connection with request bytes in
	// flight (a DialPipe connection always, an idle socket never) and each
	// parked play's remaining data; over it the oldest-idle client is shed.
	FrameBytesCeiling int64
}

// DefaultDevices returns the paper's Alofi-like device complement: a
// telephone CODEC (device 0), a local CODEC (device 1), and a stereo HiFi
// device (2) with mono left (3) and right (4) views.
func DefaultDevices() []DeviceSpec {
	return []DeviceSpec{
		{Kind: "phone", Name: "phone0"},
		{Kind: "codec", Name: "codec0"},
		{Kind: "hifi", Name: "hifi0", Rate: 44100},
	}
}

// Server is an AudioFile server instance.
type Server struct {
	opts Options
	// log records every state transition: client removals the server
	// decides (overload.go), setup refusals, and the lineserver backends'
	// events. Snapshot serves it.
	log metrics.Log

	devices []*core.Device // by device index
	descs   []proto.DeviceDesc

	// ctl is the control plane: the lock a connection's reader holds
	// while it dispatches a control request, and the one Close, Drain,
	// the front, Do and client registration take. It guards the fields
	// from here to accessList and the front's listeners and closed flag,
	// plus membership of clients and each client's acs. Outermost in the
	// lock order (ctl → engine, ascending → clientMu): nothing that runs
	// under an engine lock or on a timer's fire takes it.
	ctl   sync.Mutex
	atoms *atomTable
	props []map[uint32]*property // by device index

	accessEnabled bool
	accessList    []proto.HostEntry

	// front accepts connections and runs each one's handleConn.
	front

	// engines is the sharded data plane: one per root device, in
	// ascending device order. engineByDev maps every device index
	// (views included) to its root's engine. Both are immutable after New.
	engines     []*engine
	engineByDev []*engine

	// clientMu guards the clients set and each client's eventMasks for
	// the readers that do not hold ctl: control requests write them (under
	// both locks), engine passes and the overload sweep read them to fan
	// out events and judge queues. It is the innermost lock (engines may
	// take it; never the reverse).
	clientMu sync.RWMutex
	clients  map[*client]struct{}
	// sweep is the overload sweep's self-re-arming timer (overload.go),
	// guarded by clientMu: the sweep re-arms it under the read lock it
	// scans under, Close stops and clears it under the write lock, and
	// empties sweepTo, the timer's one way to the server.
	sweep   *time.Timer
	sweepTo *atomic.Pointer[Server]

	// budget is the resolved overload policy (overload.go); immutable
	// after New. draining flips once, when Drain begins.
	budget   budgets
	draining atomic.Bool

	closers []func() // immutable after New

	// sm is the server-wide metric set, exported by Snapshot; each engine
	// holds its own (engine.m).
	sm serverMetrics
}

// New builds the devices and arms every engine's timer.
func New(opts Options) (*Server, error) {
	opts.Vendor = cmp.Or(opts.Vendor, "audiofile-go")
	if opts.Devices == nil {
		opts.Devices = DefaultDevices()
	}
	s := &Server{
		opts:          opts,
		atoms:         newAtomTable(),
		clients:       make(map[*client]struct{}),
		accessEnabled: opts.AccessControl,
	}
	s.log.Logf = opts.Logf
	s.front = front{mu: &s.ctl, handle: s.handleConn, done: make(chan struct{})}
	// The access list starts with the server's own host, as xhost does, so
	// enabling access control does not lock out local TCP clients.
	s.accessList = []proto.HostEntry{
		{Family: proto.FamilyInternet, Addr: net.IPv4(127, 0, 0, 1).To4()},
		{Family: proto.FamilyInternet6, Addr: net.IPv6loopback},
	}
	if err := s.buildDevices(); err != nil {
		// No engine has started; only the backends dialed so far hold
		// anything (a LineServer's socket and health goroutine).
		for _, fn := range s.closers {
			fn()
		}
		return nil, err
	}
	for range s.devices {
		s.props = append(s.props, make(map[uint32]*property))
	}
	// The update plane: each engine's first periodic update (§7.2) is due
	// one interval from here, where its timer is armed.
	for _, e := range s.engines {
		e.start()
	}
	s.initOverload()
	return s, nil
}

// devKind is a simulated device kind's template: the defaults and the
// fixed format that "codec", "phone" and "hifi" build from.
type devKind struct {
	rate, hwFrames int // rate is a default, overridden by DeviceSpec
	enc            sampleconv.Encoding
	channels       int
	typ            uint8
}

var devKinds = map[string]devKind{
	// The LoFi DSP CODEC ring is ~125 ms at 8 kHz, its HiFi ring ~85 ms
	// at 48 kHz.
	"codec": {8000, 1024, sampleconv.MU255, 1, proto.DevCodec},
	"phone": {8000, 1024, sampleconv.MU255, 1, proto.DevPhone},
	"hifi":  {44100, 4096, sampleconv.LIN16, 2, proto.DevHiFi},
}

// buildDevices constructs the DDA: virtual hardware plus core devices.
func (s *Server) buildDevices() error {
	for _, spec := range s.opts.Devices {
		k, simulated := devKinds[spec.Kind]
		switch {
		case simulated:
			if err := s.buildSimulated(spec, k); err != nil {
				return err
			}
		case spec.Kind == "lineserver":
			// The Als design (§7.4.3): the server runs here, the audio
			// hardware is a LineServer box across UDP.
			rate, name := cmp.Or(spec.Rate, 8000), cmp.Or(spec.Name, "als0")
			backend, err := lineserver.Dial(spec.Addr, rate, lineserver.Config{
				NoExtrapolate: spec.LSNoExtrapolate,
				Health:        health.Config{Log: &s.log, Name: name},
			})
			if err != nil {
				return fmt.Errorf("aserver: lineserver %s: %w", spec.Addr, err)
			}
			s.closers = append(s.closers, backend.Close)
			if err := s.addRoot(spec, core.Config{
				Name: name, Type: proto.DevCodec, Rate: rate,
				Enc: sampleconv.MU255, Channels: 1, BufSeconds: spec.BufSeconds,
			}, backend, nil); err != nil {
				return err
			}
		default:
			return fmt.Errorf("aserver: unknown device kind %q", spec.Kind)
		}
	}
	if len(s.devices) == 0 {
		return errors.New("aserver: no devices configured")
	}
	for _, d := range s.devices {
		s.descs = append(s.descs, deviceDesc(d))
	}
	return nil
}

// buildSimulated builds a device of kind k over simulated hardware: a
// phone's line is its sink and source.
func (s *Server) buildSimulated(spec DeviceSpec, k devKind) error {
	rate, clock := cmp.Or(spec.Rate, k.rate), spec.Clock
	if clock == nil {
		clock = vdev.NewRealClock(rate, spec.PPM)
	}
	sink, source := spec.Sink, spec.Source
	var line *phonesim.Line
	phoneMask := uint32(0)
	if k.typ == proto.DevPhone {
		line = phonesim.NewLine(rate)
		sink, source, phoneMask = line, line, 1
	} else if spec.Loopback {
		lb := vdev.NewLoopback(4*k.hwFrames, k.enc.BytesPerSamples(k.channels), spec.LoopbackDelay, k.enc.SilenceByte())
		sink, source = lb, lb
	}
	hw := vdev.New(vdev.Config{
		Name: spec.Name, Rate: rate, Enc: k.enc, Channels: k.channels,
		HWFrames: k.hwFrames, Clock: clock, Sink: sink, Source: source,
	})
	return s.addRoot(spec, core.Config{
		Name: spec.Name, Type: k.typ, Rate: rate,
		Enc: k.enc, Channels: k.channels, BufSeconds: spec.BufSeconds,
		NumInputs: k.channels, NumOutputs: k.channels,
		InputsFromPhone: phoneMask, OutputsToPhone: phoneMask,
	}, hw, line)
}

// addRoot builds a root device over b, refusing a BufSeconds it could not
// serve (core.CheckBuffer), and registers it, the phone line behind it if
// any, and a stereo device's mono left and right views: it builds the
// root's engine, which the views share, numbers the root and then each
// view after the devices before them, and leaves the root's buffers to
// Close.
func (s *Server) addRoot(spec DeviceSpec, cfg core.Config, b core.Backend, line *phonesim.Line) error {
	if err := core.CheckBuffer(cfg, b.HWFrames()); err != nil {
		return fmt.Errorf("aserver: device %d (%s %q): %w", len(s.devices), spec.Kind, spec.Name, err)
	}
	root := core.NewDevice(cfg, b)
	devs := []*core.Device{root}
	if cfg.Channels == 2 {
		devs = append(devs, core.NewChannelView(spec.Name+"L", proto.DevMono, root, 0, 1),
			core.NewChannelView(spec.Name+"R", proto.DevMono, root, 1, 1))
	}
	e := newEngine(s, len(s.engines), root, line)
	s.engines = append(s.engines, e)
	s.closers = append(s.closers, root.Close)
	for _, d := range devs {
		d.Index = len(s.devices)
		s.devices = append(s.devices, d)
		s.engineByDev = append(s.engineByDev, e)
	}
	return nil
}

// deviceDesc builds the setup-reply description for a device.
func deviceDesc(d *core.Device) proto.DeviceDesc {
	return proto.DeviceDesc{
		Index:           uint8(d.Index),
		Type:            d.Cfg.Type,
		Name:            d.Cfg.Name,
		PlaySampleFreq:  uint32(d.Cfg.Rate),
		PlayBufType:     uint8(d.Cfg.Enc),
		PlayNchannels:   uint8(d.Cfg.Channels),
		PlayNSamplesBuf: uint32(d.BufFrames()),
		RecSampleFreq:   uint32(d.Cfg.Rate),
		RecBufType:      uint8(d.Cfg.Enc),
		RecNchannels:    uint8(d.Cfg.Channels),
		RecNSamplesBuf:  uint32(d.BufFrames()),
		NumberOfInputs:  uint8(d.Cfg.NumInputs),
		NumberOfOutputs: uint8(d.Cfg.NumOutputs),
		InputsFromPhone: d.Cfg.InputsFromPhone,
		OutputsToPhone:  d.Cfg.OutputsToPhone,
	}
}

// Device returns the core device at index i (for embedding harnesses).
func (s *Server) Device(i int) *core.Device { return s.devices[i] }

// NumDevices returns the number of abstract devices.
func (s *Server) NumDevices() int { return len(s.devices) }

// PhoneLine returns the simulated telephone line behind device i, or nil
// when the device has none or i names no device.
func (s *Server) PhoneLine(i int) *phonesim.Line {
	if i < 0 || i >= len(s.engineByDev) {
		return nil
	}
	return s.engineByDev[i].line
}

// Do runs fn under the control lock, giving tests and embedded harnesses
// race-free access to control-plane state. After Close it returns without
// running fn.
func (s *Server) Do(fn func()) {
	s.ctl.Lock()
	defer s.ctl.Unlock()
	if !s.closed {
		fn()
	}
}

// Sync forces one update cycle on every device, synchronously. Tests with
// manual clocks call this instead of waiting for the periodic tasks.
// After Close it does nothing.
func (s *Server) Sync() {
	for _, e := range s.engines {
		e.mu.Lock()
		if !e.stopped {
			e.updateLocked()
		}
		e.mu.Unlock()
	}
}

// Close shuts the server down: listeners close, clients disconnect, every
// timer stops, and the devices' buffers are released. Nothing stays
// armed, so a closed server is collectable.
func (s *Server) Close() {
	s.ctl.Lock()
	if !s.closeLocked() {
		s.ctl.Unlock()
		return
	}
	// The shutdown sweep. register refuses from here on, so this is every
	// client there will ever be. (Deleting from a map mid-range is fine.)
	for c := range s.clients {
		s.removeClient(c)
	}
	s.ctl.Unlock()
	s.stopEngines()
	s.clientMu.Lock()
	s.sweep.Stop()
	s.sweep = nil
	s.sweepTo.Store(nil)
	s.clientMu.Unlock()
	s.wg.Wait()
	for _, fn := range s.closers {
		fn()
	}
}
