package lineserver

import (
	"encoding/binary"
	"net"
	"sync"

	"audiofile/internal/atime"
	"audiofile/internal/netsim"
	"audiofile/internal/sampleconv"
	"audiofile/internal/vdev"
)

// FirmwareFrames is the LineServer buffer depth: "2048 samples, or 1/4
// second at 8 kHz".
const FirmwareFrames = 2048

// FirmwareConfig describes a simulated LineServer box.
type FirmwareConfig struct {
	Rate   int           // 0 means 8000
	Clock  vdev.Clock    // nil means a RealClock
	Sink   vdev.PlaySink // nil discards (the box's speaker jack)
	Source vdev.RecordSource
	Addr   string // UDP listen address; "" means 127.0.0.1:0

	// Faults, when non-nil, wraps the box's socket with deterministic
	// seeded packet-fault injection (loss, duplication, reordering,
	// burst blackouts). A single wrapper at the firmware's socket puts
	// the whole protocol through the fault layer: requests arriving are
	// its ingress, replies leaving are its egress.
	Faults *netsim.PacketFaultConfig
}

// Firmware simulates the LineServer's firmware: "two threads of control: a
// network thread and an update thread". The update side is the virtual
// CODEC device; the network thread loops reading request packets,
// processing them, and sending the reply back. The LineServer only sends
// packets as replies to requests.
type Firmware struct {
	mu     sync.Mutex
	dev    *vdev.Device
	regs   map[uint32]uint32
	pc     net.PacketConn
	faults *netsim.FaultPacketConn // nil without fault injection

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// Stats for tests.
	packets uint64
}

// NewFirmware boots a simulated LineServer on a UDP socket.
func NewFirmware(cfg FirmwareConfig) (*Firmware, error) {
	if cfg.Rate == 0 {
		cfg.Rate = 8000
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, err
	}
	var faults *netsim.FaultPacketConn
	if cfg.Faults != nil {
		faults = netsim.NewFaultPacketConn(pc, *cfg.Faults)
		pc = faults
	}
	f := &Firmware{
		dev: vdev.New(vdev.Config{
			Name: "lineserver", Rate: cfg.Rate, Enc: sampleconv.MU255, Channels: 1,
			HWFrames: FirmwareFrames, Clock: cfg.Clock, Sink: cfg.Sink, Source: cfg.Source,
		}),
		regs:   make(map[uint32]uint32),
		pc:     pc,
		faults: faults,
		done:   make(chan struct{}),
	}
	f.wg.Add(1)
	go f.networkThread()
	return f, nil
}

// Addr returns the firmware's UDP address.
func (f *Firmware) Addr() string { return f.pc.LocalAddr().String() }

// Faults returns the fault-injection layer, or nil when the box was
// booted without one. Chaos tests use it to read packet accounting.
func (f *Firmware) Faults() *netsim.FaultPacketConn { return f.faults }

// Packets returns how many request packets the box has processed.
func (f *Firmware) Packets() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.packets
}

// Close shuts the box down. It is safe to call more than once.
func (f *Firmware) Close() {
	f.closeOnce.Do(func() {
		close(f.done)
		f.pc.Close()
	})
	f.wg.Wait()
}

// networkThread reads requests, processes them against the CODEC, and
// replies. All requests generate replies consisting of the original
// command header with the time updated to the current device time, plus
// data bytes if applicable.
func (f *Firmware) networkThread() {
	defer f.wg.Done()
	buf := make([]byte, HeaderBytes+MaxDataBytes+64)
	for {
		n, from, err := f.pc.ReadFrom(buf)
		if err != nil {
			select {
			case <-f.done:
				return
			default:
				continue
			}
		}
		req, err := Parse(buf[:n])
		if err != nil {
			continue // garbage on the wire; a real box drops it too
		}
		rep := f.process(req)
		f.pc.WriteTo(rep.Marshal(), from) //nolint:errcheck — UDP, no retry
	}
}

// process executes one request against the device and builds the reply.
func (f *Firmware) process(req *Packet) *Packet {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.packets++
	rep := &Packet{Seq: req.Seq, Fn: req.Fn, Param: req.Param}
	switch req.Fn {
	case FnPlay:
		f.dev.Sync()
		f.dev.WritePlay(atime.ATime(req.Time), req.Data)
	case FnRecord:
		f.dev.Sync()
		n := int(req.Param)
		if n > MaxDataBytes {
			n = MaxDataBytes
		}
		data := make([]byte, n)
		f.dev.ReadRecord(atime.ATime(req.Time), data)
		rep.Data = data
	case FnReadReg:
		rep.Data = binary.BigEndian.AppendUint32(nil, f.regs[req.Param])
	case FnWriteReg:
		if len(req.Data) >= 4 {
			f.regs[req.Param] = binary.BigEndian.Uint32(req.Data)
		}
	case FnLoopback:
		rep.Data = req.Data // a loopback request returns the original packet
	case FnReset:
		f.regs = make(map[uint32]uint32)
	}
	rep.Time = uint32(f.dev.Time())
	return rep
}
