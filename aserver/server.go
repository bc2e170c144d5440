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
// (scheduler.go): a server keeps no goroutine of its own, only two per
// connection, regardless of device count. Per-connection FIFO order holds
// by construction — one goroutine dispatches a connection's requests, in
// order — and per-device serialization by the engine lock. Replies leave
// on that goroutine too, in one non-blocking write per run; only a write
// that would block goes to the connection's writer goroutine. See
// DESIGN.md ("Threading model") for the invariants.
//
// A Server is embeddable: tests, benchmarks, and the example programs run
// one in-process and connect over Unix or TCP sockets (or a pipe).
package aserver

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"audiofile/internal/core"
	"audiofile/internal/lineserver"
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
	// HWFrames overrides the simulated hardware ring depth.
	HWFrames int
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
	// Logf receives server diagnostics; nil uses the standard logger.
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
	logf func(string, ...any)

	devices []*core.Device // by device index
	hw      map[*core.Device]*vdev.Device
	lines   map[int]*phonesim.Line // device index -> phone line
	descs   []proto.DeviceDesc

	// ctl is the control plane: the lock a connection's reader holds
	// while it dispatches a control request, and the one Close, Drain,
	// Serve, Do and client registration take. It guards the fields from
	// here to stopped, plus membership of clients and each client's acs.
	// Outermost in the lock order (ctl → engine, ascending → clientMu):
	// nothing that runs under an engine lock or on a timer's fire takes it.
	ctl   sync.Mutex
	atoms *atomTable
	props []map[uint32]*property // by device index

	accessEnabled bool
	accessList    []proto.HostEntry

	listeners []net.Listener
	// stopped is the server's one lifecycle flag, set by Close; done is
	// closed with it, for the goroutines that wait rather than ask.
	stopped bool
	done    chan struct{}

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
	// scans under, Close stops and clears it under the write lock.
	sweep *time.Timer

	// budget is the resolved overload policy (overload.go); immutable
	// after New. draining flips once, when Drain begins.
	budget   budgets
	draining atomic.Bool

	closers []func() // immutable after New
	wg      sync.WaitGroup

	// Stats observed by afperf.
	requestCount atomic.Uint64

	// sm is the server-wide metric set, exported by Snapshot; each engine
	// holds its own (engine.m).
	sm serverMetrics
}

// New builds the devices and arms every engine's timer.
func New(opts Options) (*Server, error) {
	if opts.Vendor == "" {
		opts.Vendor = "audiofile-go"
	}
	if opts.Devices == nil {
		opts.Devices = DefaultDevices()
	}
	logf := opts.Logf
	if logf == nil {
		logf = log.Printf
	}
	s := &Server{
		opts:          opts,
		logf:          logf,
		hw:            make(map[*core.Device]*vdev.Device),
		lines:         make(map[int]*phonesim.Line),
		atoms:         newAtomTable(),
		clients:       make(map[*client]struct{}),
		accessEnabled: opts.AccessControl,
		done:          make(chan struct{}),
	}
	// The access list starts with the server's own host, as xhost does, so
	// enabling access control does not lock out local TCP clients.
	s.accessList = []proto.HostEntry{
		{Family: proto.FamilyInternet, Addr: net.IPv4(127, 0, 0, 1).To4()},
		{Family: proto.FamilyInternet6, Addr: net.IPv6loopback},
	}
	if err := s.buildDevices(); err != nil {
		return nil, err
	}
	for range s.devices {
		s.props = append(s.props, make(map[uint32]*property))
	}
	// Build the data plane: one engine per root device (views share their
	// parent's).
	roots := make(map[*core.Device]*engine)
	for _, d := range s.devices {
		root := d
		if d.IsView() {
			root = d.Parent()
		}
		e := roots[root]
		if e == nil {
			e = newEngine(s, len(s.engines), root, s.lines[root.Index])
			roots[root] = e
			s.engines = append(s.engines, e)
		}
		s.engineByDev = append(s.engineByDev, e)
	}
	// The update plane: each engine's first periodic update (§7.2) is due
	// one interval from here, where its timer is armed.
	for _, e := range s.engines {
		e.start()
	}
	s.initOverload()
	return s, nil
}

// buildDevices constructs the DDA: virtual hardware plus core devices.
func (s *Server) buildDevices() error {
	for _, spec := range s.opts.Devices {
		switch spec.Kind {
		case "codec", "phone":
			rate := spec.Rate
			if rate == 0 {
				rate = 8000
			}
			hwf := spec.HWFrames
			if hwf == 0 {
				hwf = 1024 // the LoFi DSP CODEC ring: ~125 ms at 8 kHz
			}
			clock := spec.Clock
			if clock == nil {
				clock = vdev.NewRealClock(rate, spec.PPM)
			}
			sink, source := spec.Sink, spec.Source
			var line *phonesim.Line
			phoneMask := uint32(0)
			if spec.Kind == "phone" {
				line = phonesim.NewLine(rate)
				sink, source = line, line
				phoneMask = 1
			} else if spec.Loopback {
				lb := vdev.NewLoopback(4*hwf, 1, spec.LoopbackDelay, 0xFF)
				sink, source = lb, lb
			}
			hw := vdev.New(vdev.Config{
				Name: spec.Name, Rate: rate, Enc: sampleconv.MU255, Channels: 1,
				HWFrames: hwf, Clock: clock, Sink: sink, Source: source,
			})
			devType := uint8(proto.DevCodec)
			if line != nil {
				devType = proto.DevPhone
			}
			dev := core.NewDevice(core.Config{
				Name: spec.Name, Type: devType, Rate: rate,
				Enc: sampleconv.MU255, Channels: 1, BufSeconds: spec.BufSeconds,
				InputsFromPhone: phoneMask, OutputsToPhone: phoneMask,
			}, hw)
			idx := len(s.devices)
			dev.Index = idx
			s.devices = append(s.devices, dev)
			s.hw[dev] = hw
			if line != nil {
				s.lines[idx] = line
			}
		case "hifi":
			rate := spec.Rate
			if rate == 0 {
				rate = 44100
			}
			hwf := spec.HWFrames
			if hwf == 0 {
				hwf = 4096 // the LoFi DSP HiFi ring: ~85 ms at 48 kHz
			}
			clock := spec.Clock
			if clock == nil {
				clock = vdev.NewRealClock(rate, spec.PPM)
			}
			sink, source := spec.Sink, spec.Source
			if spec.Loopback {
				lb := vdev.NewLoopback(4*hwf, 4, spec.LoopbackDelay, 0)
				sink, source = lb, lb
			}
			hw := vdev.New(vdev.Config{
				Name: spec.Name, Rate: rate, Enc: sampleconv.LIN16, Channels: 2,
				HWFrames: hwf, Clock: clock, Sink: sink, Source: source,
			})
			stereo := core.NewDevice(core.Config{
				Name: spec.Name, Type: proto.DevHiFi, Rate: rate,
				Enc: sampleconv.LIN16, Channels: 2, BufSeconds: spec.BufSeconds,
				NumInputs: 2, NumOutputs: 2,
			}, hw)
			idx := len(s.devices)
			stereo.Index = idx
			s.devices = append(s.devices, stereo)
			s.hw[stereo] = hw
			left := core.NewChannelView(spec.Name+"L", proto.DevMono, stereo, 0, 1)
			left.Index = idx + 1
			right := core.NewChannelView(spec.Name+"R", proto.DevMono, stereo, 1, 1)
			right.Index = idx + 2
			s.devices = append(s.devices, left, right)
		case "lineserver":
			// The Als design (§7.4.3): the server runs here, the audio
			// hardware is a LineServer box across UDP.
			rate := spec.Rate
			if rate == 0 {
				rate = 8000
			}
			var opts []lineserver.BackendOption
			if spec.LSNoExtrapolate {
				opts = append(opts, lineserver.WithoutExtrapolation())
			}
			backend, err := lineserver.Dial(spec.Addr, rate, opts...)
			if err != nil {
				return fmt.Errorf("aserver: lineserver %s: %w", spec.Addr, err)
			}
			name := spec.Name
			if name == "" {
				name = "als0"
			}
			dev := core.NewDevice(core.Config{
				Name: name, Type: proto.DevCodec, Rate: rate,
				Enc: sampleconv.MU255, Channels: 1, BufSeconds: spec.BufSeconds,
			}, backend)
			dev.Index = len(s.devices)
			s.devices = append(s.devices, dev)
			s.closers = append(s.closers, backend.Close)
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

// PhoneLine returns the simulated telephone line behind device i, or nil.
func (s *Server) PhoneLine(i int) *phonesim.Line { return s.lines[i] }

// Hardware returns the virtual hardware behind device i (views return
// their parent's), or nil for non-vdev backends.
func (s *Server) Hardware(i int) *vdev.Device {
	d := s.devices[i]
	if d.IsView() {
		d = d.Parent()
	}
	return s.hw[d]
}

// Do runs fn under the control lock, giving tests and embedded harnesses
// race-free access to control-plane state. After Close it returns without
// running fn.
func (s *Server) Do(fn func()) {
	s.ctl.Lock()
	defer s.ctl.Unlock()
	if !s.stopped {
		fn()
	}
}

// Sync forces one update cycle on every device, synchronously. Tests with
// manual clocks call this instead of waiting for the periodic tasks.
func (s *Server) Sync() {
	for _, e := range s.engines {
		e.mu.Lock()
		e.updateLocked()
		e.mu.Unlock()
	}
}

// Serve accepts connections on l until the listener or server closes.
func (s *Server) Serve(l net.Listener) error {
	s.ctl.Lock()
	if s.stopped {
		s.ctl.Unlock()
		return errors.New("aserver: server closed")
	}
	s.listeners = append(s.listeners, l)
	s.ctl.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.done:
				return nil
			default:
				return err
			}
		}
		s.spawn(conn)
	}
}

// spawn runs a new connection's handler on its own goroutine — or, once
// the server has stopped, closes the connection: Close waits on wg, so
// every Add must be ordered before its Wait, which ctl does.
func (s *Server) spawn(conn net.Conn) {
	s.ctl.Lock()
	defer s.ctl.Unlock()
	if s.stopped {
		conn.Close()
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.handleConn(conn)
	}()
}

// Listen starts serving on the given network address in the background.
func (s *Server) Listen(network, addr string) (net.Listener, error) {
	l, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	go s.Serve(l) //nolint:errcheck — ends when the listener closes
	return l, nil
}

// DialPipe returns an in-process client connection to the server.
func (s *Server) DialPipe() net.Conn {
	cc, sc := net.Pipe()
	s.spawn(sc)
	return cc
}

// Close shuts the server down: listeners close, clients disconnect, every
// timer stops. Nothing stays armed, so a closed server is collectable.
func (s *Server) Close() {
	s.ctl.Lock()
	if s.stopped {
		s.ctl.Unlock()
		return
	}
	s.stopped = true
	close(s.done)
	for _, l := range s.listeners {
		l.Close()
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
	s.clientMu.Unlock()
	s.wg.Wait()
	for _, fn := range s.closers {
		fn()
	}
}
