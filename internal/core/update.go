package core

import (
	"audiofile/internal/atime"
	"audiofile/internal/sampleconv"
)

// Update is the body of the periodic update task (§7.2, Figure 5): it
// advances the server's time register, moves the next batch of playback
// data from the server buffer into the hardware buffer (applying the
// master output gain), and — when any context is recording — moves new
// record data from the hardware into the server buffer. Views share their
// parent's update.
func (d *Device) Update() {
	r := d.root()
	now := r.backend.Time()
	r.now = now
	hw := r.backend.HWFrames()
	horizon := atime.Add(now, hw)

	// Account underruns: frames that slid into the past since the last
	// update without having been pushed, while valid client data covered
	// them.
	if atime.Before(r.timeNextUpdate, now) {
		missedEnd := atime.Min(now, r.timeLastValid)
		if atime.After(missedEnd, r.timeNextUpdate) {
			r.Underruns += uint64(atime.Sub(missedEnd, r.timeNextUpdate))
		}
		r.timeNextUpdate = now
	}

	// Play side: only runs while timeLastValid is in the future relative
	// to device time (the play-update optimization); the hardware backfills
	// silence on its own for uncovered regions.
	if r.outputsEnabled != 0 && atime.After(r.timeLastValid, r.timeNextUpdate) {
		end := atime.Min(horizon, r.timeLastValid)
		if n := int(atime.Sub(end, r.timeNextUpdate)); n > 0 {
			r.pushToHW(r.timeNextUpdate, n)
		}
	}
	r.timeNextUpdate = horizon

	// Record side: only runs when a context is recording.
	if r.RecRefCount > 0 {
		r.recUpdate(now)
	}
}

// pushToHW moves the n frames starting at t from the play buffer to the
// hardware (n is at most the hardware window, so at most two ring
// segments), applying the master output gain.
func (r *Device) pushToHW(t atime.ATime, n int) {
	q := gainQ16For(r.outputGainDB)
	a, b := r.playBuf.Region(t, n)
	r.pushSegment(t, a, q)
	r.pushSegment(atime.Add(t, len(a)/r.frameBytes), b, q)
}

// pushSegment hands one contiguous stretch of the play buffer to the
// hardware. At unity gain the backend reads the ring's own storage; with a
// master gain the gain kernel writes its one pass into scratch, the only
// staging copy left on the update path.
func (r *Device) pushSegment(t atime.ATime, seg []byte, q int32) {
	if len(seg) == 0 {
		return
	}
	if q != sampleconv.GainUnity {
		out := r.scratch[:len(seg)]
		r.masterGain(out, seg, q)
		seg = out
	}
	r.backend.WritePlay(t, seg)
}

// masterGain scales src by the Q16 gain q into dst (which may be src),
// both in the device's native encoding.
func (r *Device) masterGain(dst, src []byte, q int32) {
	enc := r.Cfg.Enc
	sampleconv.SelectKernel(enc, enc, false, true)(dst, src, len(src)/r.frameBytes*r.Cfg.Channels, q)
}

// recUpdate makes the record buffer consistent through now: data since
// timeRecLastUpdated is pulled from the hardware straight into the record
// buffer (the master input gain applied in place); any span the small
// hardware buffer no longer holds is filled with silence.
func (r *Device) recUpdate(now atime.ATime) {
	start := r.timeRecLastUpdated
	span := int(atime.Sub(now, start))
	if span <= 0 {
		return
	}
	hw := r.backend.HWFrames()
	if span > r.bufFrames {
		// Older data would overwrite itself in the ring; skip ahead.
		start = atime.Add(now, -r.bufFrames)
		span = r.bufFrames
	}
	if span > hw {
		// The hardware only retains the last hw frames; the rest is gone.
		r.recBuf.Fill(start, span-hw, r.silence)
		start = atime.Add(now, -hw)
		span = hw
	}
	a, b := r.recBuf.Region(start, span)
	r.captureSegment(start, a)
	r.captureSegment(atime.Add(start, len(a)/r.frameBytes), b)
	r.timeRecLastUpdated = now
}

// captureSegment fills one contiguous stretch of the record buffer,
// starting at device time t, from the hardware.
func (r *Device) captureSegment(t atime.ATime, seg []byte) {
	if len(seg) == 0 {
		return
	}
	if r.inputsEnabled == 0 {
		sampleconv.Fill(seg, r.silence)
		return
	}
	r.backend.ReadRecord(t, seg)
	if q := gainQ16For(r.inputGainDB); q != sampleconv.GainUnity {
		r.masterGain(seg, seg, q)
	}
}
