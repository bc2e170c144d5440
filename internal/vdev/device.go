package vdev

import (
	"fmt"

	"audiofile/internal/atime"
	"audiofile/internal/ring"
	"audiofile/internal/sampleconv"
)

// PlaySink consumes samples the simulated DAC emits. Play is called with
// monotonically increasing start times and frame data in the device's
// native encoding.
type PlaySink interface {
	Play(t atime.ATime, data []byte)
}

// RecordSource produces the samples the simulated ADC captures. Fill must
// write exactly len(buf) bytes of frame data for the block starting at t.
type RecordSource interface {
	Fill(t atime.ATime, buf []byte)
}

// Config describes a virtual audio device.
type Config struct {
	Name     string
	Rate     int                 // sampling frequency in Hz
	Enc      sampleconv.Encoding // native hardware sample type
	Channels int                 // interleaved channels per frame
	HWFrames int                 // hardware ring size in frames (power of two)
	Clock    Clock               // sample counter; nil means a RealClock at Rate
	Sink     PlaySink            // nil means discard
	Source   RecordSource        // nil means silence
}

// Device is a simulated audio device: the hardware the device-dependent
// server (DDA) drives. Its methods are the operations the LoFi DSP
// firmware offered the host — read the time counter, write the play ring,
// read the record ring — plus Sync, which stands in for the per-sample
// interrupt routine: it advances hardware state to the clock's current
// tick, delivering play data to the sink (backfilling silence behind the
// DAC, as the firmware does) and filling the record ring from the source.
//
// A Device is not safe for concurrent use; the server's single-threaded
// main loop owns it.
type Device struct {
	cfg        Config
	clock      Clock
	hwPlay     *ring.Ring
	hwRec      *ring.Ring
	frameBytes int
	silence    byte

	now       atime.ATime // hardware state is consistent through now
	playValid atime.ATime // play ring holds host data through playValid

	playedFrames uint64 // frames delivered from host-written data
	silentFrames uint64 // frames delivered as backfilled silence
	recFrames    uint64 // frames captured into the record ring
}

// New creates a virtual device. It panics on invalid configuration
// (programming error), mirroring hardware bring-up assertions.
func New(cfg Config) *Device {
	if cfg.Rate <= 0 || cfg.Channels <= 0 {
		panic(fmt.Sprintf("vdev: bad config %+v", cfg))
	}
	if cfg.HWFrames == 0 {
		cfg.HWFrames = 1024
	}
	if cfg.Clock == nil {
		cfg.Clock = NewRealClock(cfg.Rate, 0)
	}
	if cfg.Sink == nil {
		cfg.Sink = DiscardSink{}
	}
	fb, silence := cfg.Enc.BytesPerSamples(1)*cfg.Channels, cfg.Enc.SilenceByte()
	// The DSP firmware initializes its buffers to silence before enabling
	// interrupts; a new ring holds silence.
	d := &Device{
		cfg:        cfg,
		clock:      cfg.Clock,
		hwPlay:     ring.New(cfg.HWFrames, fb, silence),
		hwRec:      ring.New(cfg.HWFrames, fb, silence),
		frameBytes: fb,
		silence:    silence,
	}
	if cfg.Source == nil {
		cfg.Source = SilenceSource{Byte: d.silence}
		d.cfg.Source = cfg.Source
	}
	d.now = d.clock.Ticks()
	d.playValid = d.now
	return d
}

// HWFrames returns the hardware ring size in frames.
func (d *Device) HWFrames() int { return d.hwPlay.Frames() }

// Stats returns cumulative frame counters: host-supplied frames played,
// silence frames played, and frames recorded.
func (d *Device) Stats() (played, silent, recorded uint64) {
	return d.playedFrames, d.silentFrames, d.recFrames
}

// Time synchronizes hardware state with the clock and returns the current
// device time.
func (d *Device) Time() atime.ATime {
	d.Sync()
	return d.now
}

// Sync advances the simulated hardware to the clock's current tick: frames
// that the DAC consumed since the last Sync are delivered to the sink (and
// their ring slots backfilled with silence), and the ADC's frames are
// pulled from the source into the record ring.
func (d *Device) Sync() {
	target := d.clock.Ticks()
	for atime.Before(d.now, target) {
		n := int(atime.Sub(target, d.now))
		if n > d.hwPlay.Frames() {
			n = d.hwPlay.Frames()
		}
		d.syncChunk(n)
	}
}

func (d *Device) syncChunk(n int) {
	start := d.now
	// Deliver play data to the sink.
	a, b := d.hwPlay.Region(start, n)
	d.cfg.Sink.Play(start, a)
	if b != nil {
		d.cfg.Sink.Play(atime.Add(start, len(a)/d.frameBytes), b)
	}
	// Account valid vs backfilled frames.
	valid := int(atime.Sub(d.playValid, start))
	if valid < 0 {
		valid = 0
	} else if valid > n {
		valid = n
	}
	d.playedFrames += uint64(valid)
	d.silentFrames += uint64(n - valid)
	// Backfill the consumed region with silence.
	d.hwPlay.Fill(start, n, d.silence)
	if atime.Before(d.playValid, atime.Add(start, n)) {
		d.playValid = atime.Add(start, n)
	}
	// Capture record data from the source.
	ra, rb := d.hwRec.Region(start, n)
	d.cfg.Source.Fill(start, ra)
	if rb != nil {
		d.cfg.Source.Fill(atime.Add(start, len(ra)/d.frameBytes), rb)
	}
	d.recFrames += uint64(n)
	d.now = atime.Add(start, n)
}

// WritePlay copies host frame data into the hardware play ring for the
// block starting at t. Frames that fall before the current device time or
// beyond the ring horizon (now + HWFrames) are discarded; it returns the
// number of frames accepted.
func (d *Device) WritePlay(t atime.ATime, data []byte) int {
	n := len(data) / d.frameBytes
	skip, in := atime.ClipSpan(t, n, d.now, atime.Add(d.now, d.hwPlay.Frames()))
	if in == 0 {
		return 0
	}
	t = atime.Add(t, skip)
	d.hwPlay.WriteAt(t, data[skip*d.frameBytes:(skip+in)*d.frameBytes])
	if end := atime.Add(t, in); atime.After(end, d.playValid) {
		d.playValid = end
	}
	return in
}

// ReadRecord copies captured frame data for the block starting at t into
// buf. Frames outside the recorded window [now - HWFrames, now) read as
// silence; it returns the number of valid frames delivered.
func (d *Device) ReadRecord(t atime.ATime, buf []byte) int {
	return readSpan(d.hwRec, t, buf, atime.Add(d.now, -d.hwRec.Frames()), d.now, d.silence)
}

// readSpan is the span read both record paths share: it fills buf with the
// whole frames starting at t out of r, of which only the window [lo, hi)
// (at most one ring revolution) holds data. The span is clipped against
// the window once; the part inside is one ring copy, the parts before and
// after it are silence. It returns the frames that came from the ring.
func readSpan(r *ring.Ring, t atime.ATime, buf []byte, lo, hi atime.ATime, silence byte) int {
	fb := r.FrameBytes()
	n := len(buf) / fb
	skip, in := atime.ClipSpan(t, n, lo, hi)
	from, to := skip*fb, (skip+in)*fb
	sampleconv.Fill(buf[:from], silence)
	r.ReadAt(atime.Add(t, skip), buf[from:to])
	sampleconv.Fill(buf[to:n*fb], silence)
	return in
}
