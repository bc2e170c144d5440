// Package ring implements the circular, device-time-indexed sample buffers
// at the heart of the AudioFile server: the ~4 second per-device play and
// record buffers, and the small "hardware" rings inside the simulated audio
// devices.
//
// A ring holds a fixed, power-of-two number of frames (a frame is one
// sample tick across all channels). Frame f of the audio timeline lives at
// ring offset f & (frames-1); because the capacity divides 2^32, the
// mapping stays continuous when device time wraps, exactly like the
// DSP56001 circular addressing the paper relies on.
package ring

import (
	"fmt"

	"audiofile/internal/atime"
	"audiofile/internal/sampleconv"
)

// Ring is a time-indexed circular buffer of sample frames.
type Ring struct {
	buf        []byte
	frames     uint32 // power of two
	mask       uint32
	frameBytes int
	mapped     bool // buf is a mapping (mem_linux.go)

	// filled counts frames written by Fill over the ring's lifetime —
	// for the server's play buffer that is exactly the silence-filled
	// sample count the observability layer reports. Plain (not atomic):
	// a Ring is single-owner, guarded by its device's engine lock; the
	// metrics snapshot reads it under the same lock.
	filled uint64
}

// RoundFrames rounds n up to the next power of two (minimum 2).
func RoundFrames(n int) int {
	p := 2
	for p < n {
		p <<= 1
	}
	return p
}

// New creates a ring holding the given number of frames, each frameBytes
// long, every byte set to silence: a new ring reads as silence, and its
// fill counter starts at zero. frames must be a power of two.
func New(frames, frameBytes int, silence byte) *Ring {
	return newRing(frames, frameBytes, silence, false)
}

// NewBuffer is New for a device's play or record buffer. One whose
// silence is 0 takes memory the kernel zero-fills a page at a time, at
// first touch, where the platform allows (mem_linux.go); its owner must
// Release it. Any other is written whole at birth, so a mapping saves it
// nothing.
func NewBuffer(frames, frameBytes int, silence byte) *Ring {
	return newRing(frames, frameBytes, silence, silence == 0)
}

func newRing(frames, frameBytes int, silence byte, zero bool) *Ring {
	if frames <= 0 || frames&(frames-1) != 0 {
		panic(fmt.Sprintf("ring: frames %d is not a power of two", frames))
	}
	if frameBytes <= 0 {
		panic("ring: frameBytes must be positive")
	}
	r := &Ring{frames: uint32(frames), mask: uint32(frames - 1), frameBytes: frameBytes}
	if zero {
		r.buf, r.mapped = zeroed(frames * frameBytes)
	} else if r.buf = make([]byte, frames*frameBytes); silence != 0 {
		sampleconv.Fill(r.buf, silence)
	}
	return r
}

// Release gives the ring's storage back, unmapping a mapping. Any later
// touch of a frame is then a bounds panic, not a touch of freed memory.
// No finalizer stands in for it: a Region slice may outlive its ring.
func (r *Ring) Release() {
	if r.mapped {
		unmap(r.buf)
	}
	r.buf, r.mapped = nil, false
}

// Frames returns the ring capacity in frames.
func (r *Ring) Frames() int { return int(r.frames) }

// FrameBytes returns the size of one frame in bytes.
func (r *Ring) FrameBytes() int { return r.frameBytes }

// Region returns the storage for nframes frames starting at time t as at
// most two contiguous byte slices (two when the region wraps the end of
// the buffer). nframes must not exceed the ring capacity. The slices alias
// the ring's storage: callers may read, overwrite, or mix in place.
func (r *Ring) Region(t atime.ATime, nframes int) (a, b []byte) {
	if nframes < 0 || uint32(nframes) > r.frames {
		panic(fmt.Sprintf("ring: region of %d frames exceeds capacity %d", nframes, r.frames))
	}
	start := uint32(t) & r.mask
	first := r.frames - start
	if uint32(nframes) <= first {
		off := int(start) * r.frameBytes
		return r.buf[off : off+nframes*r.frameBytes], nil
	}
	off := int(start) * r.frameBytes
	a = r.buf[off : off+int(first)*r.frameBytes]
	b = r.buf[:(nframes-int(first))*r.frameBytes]
	return a, b
}

// WriteAt copies frame data into the ring starting at time t. len(data)
// must be a whole number of frames and at most the ring size.
func (r *Ring) WriteAt(t atime.ATime, data []byte) {
	n := len(data) / r.frameBytes
	a, b := r.Region(t, n)
	copy(a, data)
	if b != nil {
		copy(b, data[len(a):])
	}
}

// ReadAt copies frame data out of the ring starting at time t into buf.
// len(buf) must be a whole number of frames and at most the ring size.
func (r *Ring) ReadAt(t atime.ATime, buf []byte) {
	n := len(buf) / r.frameBytes
	a, b := r.Region(t, n)
	copy(buf, a)
	if b != nil {
		copy(buf[len(a):], b)
	}
}

// Fill writes the byte value v over nframes frames starting at time t
// (used for silence fill).
func (r *Ring) Fill(t atime.ATime, nframes int, v byte) {
	a, b := r.Region(t, nframes)
	sampleconv.Fill(a, v)
	sampleconv.Fill(b, v)
	r.filled += uint64(nframes)
}

// FilledFrames returns the cumulative number of frames written by Fill.
func (r *Ring) FilledFrames() uint64 { return r.filled }
