package vdev

import (
	"math"
	"sync"

	"audiofile/internal/atime"
	"audiofile/internal/ring"
	"audiofile/internal/sampleconv"
)

// DiscardSink throws played samples away (a speaker in an empty room).
type DiscardSink struct{}

// Play implements PlaySink.
func (DiscardSink) Play(atime.ATime, []byte) {}

// SilenceSource records an open microphone in a silent room.
type SilenceSource struct{ Byte byte }

// Fill implements RecordSource.
func (s SilenceSource) Fill(_ atime.ATime, buf []byte) { sampleconv.Fill(buf, s.Byte) }

// CaptureSink accumulates played samples for inspection by tests. It keeps
// at most Max bytes (0 means unlimited) and is safe for concurrent reads.
type CaptureSink struct {
	Max int

	mu    sync.Mutex
	buf   []byte
	start atime.ATime
	set   bool
}

// Play implements PlaySink.
func (c *CaptureSink) Play(t atime.ATime, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.set {
		c.start, c.set = t, true
	}
	c.buf = append(c.buf, data...)
	if c.Max > 0 && len(c.buf) > c.Max {
		over := len(c.buf) - c.Max
		c.buf = c.buf[over:]
		c.start = atime.Add(c.start, over) // approximate: callers use frame-sized Max
	}
}

// Bytes returns a copy of the captured data and the device time of its
// first byte's frame.
func (c *CaptureSink) Bytes() ([]byte, atime.ATime) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf...), c.start
}

// SineSource records a continuous sine wave, phase-locked to device time
// so the captured signal is deterministic.
type SineSource struct {
	Freq float64 // Hz
	Amp  float64 // peak amplitude in the 16-bit linear domain
	Rate int
	Enc  sampleconv.Encoding
	Ch   int
}

// Fill implements RecordSource.
func (s SineSource) Fill(t atime.ATime, buf []byte) {
	fb := s.Enc.BytesPerSamples(1) * s.Ch
	n := len(buf) / fb
	w := 2 * math.Pi * s.Freq / float64(s.Rate)
	for i := 0; i < n; i++ {
		v := int(s.Amp * math.Sin(w*float64(uint32(atime.Add(t, i)))))
		for c := 0; c < s.Ch; c++ {
			sampleconv.EncodeSample(s.Enc, buf, i*s.Ch+c, v)
		}
	}
}

// Loopback wires a device's output back to its input with a fixed delay,
// like a patch cable from line-out to line-in. It implements both PlaySink
// and RecordSource. The internal ring must cover the device's hardware
// ring plus the delay.
type Loopback struct {
	mu         sync.Mutex
	ring       *ring.Ring
	frameBytes int
	delay      int
	silence    byte
	written    atime.ATime
	wrSet      bool
}

// NewLoopback creates a loopback path. frames must be a power of two large
// enough to span the device's hardware ring plus delayFrames.
func NewLoopback(frames, frameBytes, delayFrames int, silence byte) *Loopback {
	return &Loopback{
		ring:       ring.New(frames, frameBytes, silence),
		frameBytes: frameBytes,
		delay:      delayFrames,
		silence:    silence,
	}
}

// Play implements PlaySink: output samples enter the cable.
func (l *Loopback) Play(t atime.ATime, data []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring.WriteAt(t, data)
	end := atime.Add(t, len(data)/l.frameBytes)
	if !l.wrSet || atime.After(end, l.written) {
		l.written, l.wrSet = end, true
	}
}

// Fill implements RecordSource: the microphone hears the cable delayed.
// The cable holds the last ring's worth of frames before written, and
// nothing at all before the first Play.
func (l *Loopback) Fill(t atime.ATime, buf []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lo := l.written
	if l.wrSet {
		lo = atime.Add(l.written, -l.ring.Frames())
	}
	readSpan(l.ring, atime.Add(t, -l.delay), buf, lo, l.written, l.silence)
}
