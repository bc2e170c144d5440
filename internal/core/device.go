// Package core implements the heart of the AudioFile server: the
// per-device buffering engine of §7.2. Each abstract audio device keeps
// roughly four seconds of future playback and recent record data in
// circular buffers indexed by device time, kept consistent with the
// (simulated) hardware by a periodic update task, with write-through for
// requests that land in the update regions, mix-by-default/preempt-on-
// request output, and the timeLastValid silence-fill optimization.
package core

import (
	"cmp"
	"fmt"
	"math"

	"audiofile/internal/atime"
	"audiofile/internal/ring"
	"audiofile/internal/sampleconv"
)

// Backend is the device-dependent hardware interface: what the DDA needs
// from real or simulated audio hardware. internal/vdev.Device implements
// it directly; the LineServer backend implements it over UDP.
type Backend interface {
	// Time synchronizes hardware state and returns the current device time.
	Time() atime.ATime
	// WritePlay pushes frame data into the hardware play buffer.
	WritePlay(t atime.ATime, data []byte) int
	// ReadRecord pulls captured frame data from the hardware.
	ReadRecord(t atime.ATime, buf []byte) int
	// HWFrames is the hardware buffer depth in frames.
	HWFrames() int
}

// Config describes an abstract audio device as exposed to clients (§5.4).
type Config struct {
	Name       string
	Type       uint8 // proto.DevCodec etc.
	Rate       int
	Enc        sampleconv.Encoding
	Channels   int
	BufSeconds float64 // server buffer depth; 0 means 4 seconds

	NumInputs       int
	NumOutputs      int
	InputsFromPhone uint32
	OutputsToPhone  uint32
}

// Device is the device-independent server's view of one audio device: the
// paper's AudioDeviceRec. It is not safe for concurrent use: the server
// serializes all access to a root device (and its views) behind that
// device's engine lock — see the "Threading model" section of DESIGN.md.
type Device struct {
	Cfg     Config
	Index   int
	backend Backend

	playBuf *ring.Ring
	recBuf  *ring.Ring

	frameBytes int
	bufFrames  int // power of two
	silence    byte

	// Time bookkeeping (§7.3.2). now is the paper's time0.
	now                atime.ATime
	timeNextUpdate     atime.ATime // hardware play buffer consistent through this
	timeLastValid      atime.ATime // last valid playback sample written by any client
	timeRecLastUpdated atime.ATime // record buffer consistent through this

	// RecRefCount counts audio contexts that have recorded; the record
	// update only runs when it is positive (§7.4.1 optimization).
	RecRefCount int

	// IO counts sample-frame flow through the buffering engine. Root
	// devices own the counters (views account into their parent's);
	// they are guarded by the device's engine lock, like all other
	// device state, and the metrics snapshot reads them under it.
	IO IOStats

	// Master gain and I/O control state.
	inputGainDB    int
	outputGainDB   int
	inputsEnabled  uint32
	outputsEnabled uint32

	// Views are per-channel sub-devices (the HiFi mono left/right devices)
	// sharing this device's buffers. A view's parent points here.
	parent  *Device
	chanOff int // first channel of the view within the parent's frames
	chanCnt int

	// scratch is where the master output gain kernel writes the hardware's
	// copy of a play-buffer segment (one hardware window); nothing else on
	// the update path stages.
	scratch []byte

	// Underruns counts play frames that missed the hardware window
	// because the update task ran too late.
	Underruns uint64
}

// IOStats are the per-device conservation counters: every frame a
// PlaySamples request delivers is either discarded (scheduled in the
// past) or buffered, within one call, so the frame law holds at every
// engine-lock release (aserver.DeviceStats.Check states it).
// FramesPreempted counts previously valid buffered frames overwritten by
// a preempting play (they were counted as buffered but never reach the
// DAC with their original content).
type IOStats struct {
	FramesAccepted  uint64 // play frames consumed from requests
	FramesBuffered  uint64 // play frames mixed or copied into the play buffer
	FramesDiscarded uint64 // play frames dropped because they were scheduled in the past
	FramesPreempted uint64 // valid buffered frames overwritten by preempting plays
	FramesRecorded  uint64 // record frames delivered to clients
}

// MSUpdate is the nominal periodic update interval in milliseconds.
const MSUpdate = 100

// defaultBufSeconds is the buffer depth a zero BufSeconds selects.
const defaultBufSeconds = 4

// CheckBuffer refuses a BufSeconds no play could land in over a hwFrames
// window: NaN, infinite or negative, a ring no larger than the window, or
// one of 2^31 frames (half of device time) or more. It judges in float64.
func CheckBuffer(cfg Config, hwFrames int) error {
	secs := cmp.Or(cfg.BufSeconds, defaultBufSeconds)
	frames := secs * float64(cfg.Rate)
	if math.IsNaN(frames) || secs < 0 || frames > 1<<30 || ring.RoundFrames(int(frames)) <= hwFrames {
		return fmt.Errorf("BufSeconds %v: the ring must exceed the %d-frame hardware window and stay under 2^31 frames", cfg.BufSeconds, hwFrames)
	}
	return nil
}

// NewDevice creates a device over a hardware backend. The server buffer
// holds at least BufSeconds of audio, rounded up to a power of two frames.
// A root device's buffers are released by Close.
func NewDevice(cfg Config, b Backend) *Device {
	cfg.BufSeconds = cmp.Or(cfg.BufSeconds, defaultBufSeconds)
	if cfg.NumInputs == 0 {
		cfg.NumInputs = 1
	}
	if cfg.NumOutputs == 0 {
		cfg.NumOutputs = 1
	}
	fb := cfg.Enc.BytesPerSamples(1) * cfg.Channels
	frames := ring.RoundFrames(int(cfg.BufSeconds * float64(cfg.Rate)))
	silence := cfg.Enc.SilenceByte()
	d := &Device{
		Cfg:            cfg,
		backend:        b,
		frameBytes:     fb,
		bufFrames:      frames,
		silence:        silence,
		playBuf:        ring.NewBuffer(frames, fb, silence),
		recBuf:         ring.NewBuffer(frames, fb, silence),
		chanCnt:        cfg.Channels,
		scratch:        make([]byte, b.HWFrames()*fb),
		inputsEnabled:  (1 << cfg.NumInputs) - 1,
		outputsEnabled: (1 << cfg.NumOutputs) - 1,
	}
	t := b.Time()
	d.now = t
	// The freshly initialized hardware ring holds silence for the whole
	// window [t, t+HWFrames), so the update region starts covered: client
	// plays landing inside it write through immediately.
	d.timeNextUpdate = atime.Add(t, b.HWFrames())
	d.timeLastValid = t
	d.timeRecLastUpdated = t
	return d
}

// Close releases a root device's buffers; a view shares its parent's and
// releases nothing. Nothing may use the device or its views afterwards.
func (d *Device) Close() {
	if d.parent == nil {
		d.playBuf.Release()
		d.recBuf.Release()
	}
}

// NewChannelView creates a mono (or narrower) sub-device over channels
// [chanOff, chanOff+channels) of parent, sharing its buffers and time, as
// the Alofi server builds left/right devices on top of the stereo buffers.
func NewChannelView(name string, devType uint8, parent *Device, chanOff, channels int) *Device {
	cfg := parent.Cfg
	cfg.Name = name
	cfg.Type = devType
	cfg.Channels = channels
	return &Device{
		Cfg:        cfg,
		backend:    parent.backend,
		parent:     parent,
		chanOff:    chanOff,
		chanCnt:    channels,
		frameBytes: parent.frameBytes,
		bufFrames:  parent.bufFrames,
		silence:    parent.silence,
	}
}

// root returns the buffer-owning device (itself, or a view's parent).
func (d *Device) root() *Device {
	if d.parent != nil {
		return d.parent
	}
	return d
}

// IsView reports whether d is a channel view of another device.
func (d *Device) IsView() bool { return d.parent != nil }

// BufFrames returns the server buffer depth in frames.
func (d *Device) BufFrames() int { return d.root().bufFrames }

// FrameBytes returns one frame of the underlying device in bytes.
func (d *Device) FrameBytes() int { return d.root().frameBytes }

// Backend exposes the hardware backend (for DDA-specific control).
func (d *Device) Backend() Backend { return d.backend }

// Now returns the server's view of device time as of the last refresh.
func (d *Device) Now() atime.ATime { return d.root().now }

// PendingPlayFrames reports how many play frames past the device's
// current time clients have scheduled: the distance from now to the last
// valid playback sample written. Zero means the play ring has been
// consumed to the device tail — nothing buffered remains unheard, the
// condition a graceful drain waits for.
func (d *Device) PendingPlayFrames() int {
	r := d.root()
	n := int(atime.Sub(r.timeLastValid, r.now))
	if n < 0 {
		return 0
	}
	return n
}

// Time refreshes the time register from the hardware and returns it
// (the paper's CODEC_UPDATE_TIME).
func (d *Device) Time() atime.ATime {
	r := d.root()
	r.now = r.backend.Time()
	return r.now
}

// gainFactor converts a dB value to a linear multiplier.
func gainFactor(db int) float64 {
	if db == 0 {
		return 1.0
	}
	return math.Pow(10, float64(db)/20)
}

// gainQ16Tab caches the Q16 quantization of gainFactor over the dB range
// requests actually use, so the play/record hot path never calls math.Pow.
var gainQ16Tab [129]int32

func init() {
	for db := -64; db <= 64; db++ {
		gainQ16Tab[db+64] = sampleconv.GainQ16(gainFactor(db))
	}
}

// gainQ16For resolves a request's dB gain to the engine's Q16 multiplier.
func gainQ16For(db int) int32 {
	if db >= -64 && db <= 64 {
		return gainQ16Tab[db+64]
	}
	return sampleconv.GainQ16(gainFactor(db))
}

// Stats returns the root device's conservation counters. Call under the
// owning engine's lock for a consistent read.
func (d *Device) Stats() IOStats { return d.root().IO }

// PlaySilenceFilled returns the frames of silence inserted into the play
// buffer to cover gaps between requests (§7.4.1's fill-only-when-needed
// path). Call under the owning engine's lock.
func (d *Device) PlaySilenceFilled() uint64 { return d.root().playBuf.FilledFrames() }

// RecSilenceFilled returns the frames of silence written into the record
// buffer for spans the hardware no longer held. Call under the owning
// engine's lock.
func (d *Device) RecSilenceFilled() uint64 { return d.root().recBuf.FilledFrames() }

// InputGain returns the master input gain in dB.
func (d *Device) InputGain() int { return d.root().inputGainDB }

// OutputGain returns the master output gain in dB.
func (d *Device) OutputGain() int { return d.root().outputGainDB }

// SetInputGain sets the master input gain in dB.
func (d *Device) SetInputGain(db int) { d.root().inputGainDB = db }

// SetOutputGain sets the master output gain (volume) in dB.
func (d *Device) SetOutputGain(db int) { d.root().outputGainDB = db }

// EnableInputs sets bits in the enabled-inputs mask.
func (d *Device) EnableInputs(mask uint32) { d.root().inputsEnabled |= mask }

// DisableInputs clears bits in the enabled-inputs mask.
func (d *Device) DisableInputs(mask uint32) { d.root().inputsEnabled &^= mask }

// EnableOutputs sets bits in the enabled-outputs mask.
func (d *Device) EnableOutputs(mask uint32) { d.root().outputsEnabled |= mask }

// DisableOutputs clears bits in the enabled-outputs mask.
func (d *Device) DisableOutputs(mask uint32) { d.root().outputsEnabled &^= mask }
