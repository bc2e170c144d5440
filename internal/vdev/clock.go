// Package vdev simulates the audio hardware the AudioFile server drives: a
// sample-rate clock, small "hardware" play and record rings (the analogue
// of the LoFi DSP's shared-memory buffers), a sink consuming played
// samples, and a source producing recorded samples.
//
// The paper's servers keep a per-device time register consistent with a
// hardware counter; here the counter is a Clock, either derived from the
// host monotonic clock (RealClock, optionally skewed by some ppm to model
// crystal tolerance) or advanced explicitly (ManualClock, used by tests and
// benchmarks so no experiment has to wait on wall time).
package vdev

import (
	"sync/atomic"
	"time"

	"audiofile/internal/atime"
)

// Clock is a hardware sample counter for one audio device.
type Clock interface {
	// Ticks returns the current value of the sample counter.
	Ticks() atime.ATime
	// Rate returns the nominal sampling rate in Hz.
	Rate() int
}

// RealClock derives the sample counter from the host monotonic clock. A
// nonzero ppm models crystal frequency error (positive runs fast).
type RealClock struct {
	start time.Time
	rate  int
	scale float64
}

// NewRealClock returns a clock at the given rate, skewed by ppm parts per
// million.
func NewRealClock(rate int, ppm float64) *RealClock {
	return &RealClock{start: time.Now(), rate: rate, scale: float64(rate) * (1 + ppm/1e6)}
}

// Ticks implements Clock.
func (c *RealClock) Ticks() atime.ATime {
	return atime.ATime(uint64(time.Since(c.start).Seconds() * c.scale))
}

// Rate implements Clock.
func (c *RealClock) Rate() int { return c.rate }

// ManualClock is a sample counter advanced explicitly by the test or
// benchmark harness. It is safe for concurrent use: the counter is one
// atomic word, so Ticks — read on every GetTime, Play and Record — takes
// no lock, and Advance is a single atomic add.
type ManualClock struct {
	t    atomic.Uint32
	rate int
}

// NewManualClock returns a manual clock at the given rate, starting at 0.
func NewManualClock(rate int) *ManualClock {
	return &ManualClock{rate: rate}
}

// Ticks implements Clock.
func (c *ManualClock) Ticks() atime.ATime { return atime.ATime(c.t.Load()) }

// Rate implements Clock.
func (c *ManualClock) Rate() int { return c.rate }

// Advance moves the clock forward n ticks; n may be negative.
func (c *ManualClock) Advance(n int) { c.t.Add(uint32(int32(n))) }

// Set jumps the clock to an absolute tick value.
func (c *ManualClock) Set(t atime.ATime) { c.t.Store(uint32(t)) }
