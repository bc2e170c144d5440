package core

import (
	"audiofile/internal/atime"
	"audiofile/internal/ring"
	"audiofile/internal/sampleconv"
)

// PlayResult reports how a play request was handled.
type PlayResult struct {
	Consumed int         // frames consumed (discarded-as-past + buffered)
	Blocked  bool        // frames remain that fall beyond the buffer horizon
	Now      atime.ATime // device time after handling
}

// Play handles a PlaySamples request against this device (or view). data
// holds frames in the client's encoding enc with the view's channel count,
// already in native byte order. gainDB is the audio context's play gain,
// preempt its preemption flag.
//
// Per the output model (§2.2): data scheduled for the past is silently
// discarded; data within the buffer window is converted, gain-adjusted and
// mixed (or copied, when preempting) into the play buffer; data beyond the
// window is left for the caller to retry later (Blocked).
func (d *Device) Play(start atime.ATime, data []byte, enc sampleconv.Encoding, gainDB int, preempt bool) PlayResult {
	r := d.root()
	now := r.backend.Time()
	r.now = now
	vfb := enc.BytesPerSamples(1) * d.chanCnt // client frame size
	total := len(data) / vfb
	consumed := 0

	// Discard the portion scheduled for the past.
	if atime.Before(start, now) {
		skip := int(atime.Sub(now, start))
		if skip >= total {
			r.IO.FramesAccepted += uint64(total)
			r.IO.FramesDiscarded += uint64(total)
			return PlayResult{Consumed: total, Now: now}
		}
		r.IO.FramesDiscarded += uint64(skip)
		consumed += skip
		data = data[skip*vfb:]
		start = now
		total -= skip
	}

	// The play buffer is usable through now + bufFrames - hwFrames: the
	// frames nearest the horizon must stay clear for the update task's
	// hardware window (§7.2: the buffer ends at the time of the last
	// update plus the buffer size).
	bufEnd := atime.Add(now, r.bufFrames-r.backend.HWFrames())
	n := total
	if atime.After(atime.Add(start, n), bufEnd) {
		n = int(atime.Sub(bufEnd, start))
		if n < 0 {
			n = 0
		}
	}

	if n > 0 {
		// Silence-fill the gap between the last valid sample and this
		// request (§7.4.1): only when absolutely necessary.
		if atime.After(start, r.timeLastValid) {
			fillFrom := atime.Max(r.timeLastValid, atime.Add(start, -r.bufFrames))
			if gap := int(atime.Sub(start, fillFrom)); gap > 0 {
				r.playBuf.Fill(fillFrom, gap, r.silence)
			}
		}
		// The request's pipeline shape — encodings, Q16 gain, mix or copy —
		// is resolved to batch kernels once here, then reused across every
		// buffer region the request touches.
		q := gainQ16For(gainDB)
		hasGain := q != sampleconv.GainUnity
		kCopy := sampleconv.SelectKernel(r.Cfg.Enc, enc, false, hasGain)
		if preempt {
			// Valid frames in [start, timeLastValid) are overwritten, not
			// mixed: account the preempted samples the old data loses.
			if ov := int(atime.Sub(r.timeLastValid, start)); ov > 0 {
				if ov > n {
					ov = n
				}
				r.IO.FramesPreempted += uint64(ov)
			}
			d.blitPlay(start, n, data, enc, q, false, kCopy)
		} else {
			kMix := sampleconv.SelectKernel(r.Cfg.Enc, enc, true, hasGain)
			// Samples before timeLastValid mix with existing data; samples
			// after it are copied (nothing valid is there).
			mixN := n
			if atime.After(atime.Add(start, n), r.timeLastValid) {
				mixN = int(atime.Sub(r.timeLastValid, start))
				if mixN < 0 {
					mixN = 0
				}
			}
			if mixN > 0 {
				d.blitPlay(start, mixN, data, enc, q, true, kMix)
			}
			if mixN < n {
				d.blitPlay(atime.Add(start, mixN), n-mixN, data[mixN*vfb:], enc, q, false, kCopy)
			}
		}
		if end := atime.Add(start, n); atime.After(end, r.timeLastValid) {
			r.timeLastValid = end
		}
		// Write-through: the part of the request that falls inside the
		// update region [now, timeNextUpdate) must reach the hardware
		// immediately; the periodic task has already passed it by.
		if r.outputsEnabled != 0 && atime.Before(start, r.timeNextUpdate) {
			wn := int(atime.Sub(r.timeNextUpdate, start))
			if wn > n {
				wn = n
			}
			r.pushToHW(start, wn)
		}
		r.IO.FramesBuffered += uint64(n)
		consumed += n
	}
	r.IO.FramesAccepted += uint64(consumed)
	return PlayResult{Consumed: consumed, Blocked: n < total, Now: now}
}

// blitPlay converts nframes of client samples into the play buffer region
// starting at t. For a full-width device it applies the request's batch
// kernel k to the packed regions; for a channel view it touches only the
// view's channels inside each frame.
func (d *Device) blitPlay(t atime.ATime, nframes int, src []byte, enc sampleconv.Encoding, q int32, mix bool, k sampleconv.Kernel) {
	r := d.root()
	a, b := r.playBuf.Region(t, nframes)
	if d.parent == nil {
		ch := r.Cfg.Channels
		na := len(a) / r.frameBytes
		k(a, src, na*ch, q)
		if b != nil {
			k(b, src[enc.BytesPerSamples(na*ch):], (nframes-na)*ch, q)
		}
		return
	}
	// Channel view: strided per-sample processing.
	d.blitView(a, b, src, enc, q, mix, true)
}

// blitView moves samples between a view's packed client data and the
// parent's interleaved frames. toBuf selects direction: true converts src
// (client data) into the buffer regions; false extracts buffer samples
// into src (which is then the destination, used by Record). Each channel
// of each region is one strided run of the reference pipeline.
func (d *Device) blitView(a, b []byte, client []byte, enc sampleconv.Encoding, q int32, mix, toBuf bool) {
	r := d.root()
	devEnc := r.Cfg.Enc
	devCh := r.Cfg.Channels
	frame := 0
	for _, region := range [][]byte{a, b} {
		rf := len(region) / r.frameBytes
		for c := 0; c < d.chanCnt; c++ {
			bufIdx, cliIdx := d.chanOff+c, frame*d.chanCnt+c
			if toBuf {
				sampleconv.Strided(region, devEnc, bufIdx, devCh, client, enc, cliIdx, d.chanCnt, rf, q, mix)
			} else {
				sampleconv.Strided(client, enc, cliIdx, d.chanCnt, region, devEnc, bufIdx, devCh, rf, q, false)
			}
		}
		frame += rf
	}
}

// RecordResult reports how a record request was handled.
type RecordResult struct {
	Avail int         // frames delivered into dst (from the request start)
	Now   atime.ATime // device time after handling
}

// Record handles a RecordSamples request: it fills dst (client encoding
// enc, view channel count) with up to nframes frames starting at start.
// Frames older than the buffer window read as silence (§2.3); frames up to
// "now" come from the record buffer; frames in the future are not
// delivered — the caller blocks or returns short according to the
// request's block flag.
func (d *Device) Record(start atime.ATime, dst []byte, enc sampleconv.Encoding, gainDB int) RecordResult {
	r := d.root()
	now, avail, pre, vfb := d.recordWindow(start, dst, enc)
	if avail == 0 {
		return RecordResult{Avail: 0, Now: now}
	}
	// Bring the record buffer up to date if the request needs data newer
	// than the last record update.
	if atime.After(atime.Add(start, avail), r.timeRecLastUpdated) {
		r.recUpdate(now)
	}
	if n := avail - pre; n > 0 {
		d.readRing(r.recBuf, atime.Add(start, pre), n, dst[pre*vfb:], enc, gainQ16For(gainDB))
	}
	r.IO.FramesRecorded += uint64(avail)
	return RecordResult{Avail: avail, Now: now}
}

// recordWindow is the window Record and TapMix read: of the frames dst
// holds (client encoding enc, view channel count) from start, avail have
// already passed device time now, and the first pre of those, older than
// the buffer window, are filled with silence here. vfb is the client
// frame size.
func (d *Device) recordWindow(start atime.ATime, dst []byte, enc sampleconv.Encoding) (now atime.ATime, avail, pre, vfb int) {
	r := d.root()
	now = r.backend.Time()
	r.now = now
	vfb = enc.BytesPerSamples(1) * d.chanCnt
	avail = len(dst) / vfb
	if atime.After(atime.Add(start, avail), now) {
		avail = max(int(atime.Sub(now, start)), 0)
	}
	if oldest := atime.Add(now, -r.bufFrames); atime.Before(start, oldest) {
		pre = min(int(atime.Sub(oldest, start)), avail)
		sampleconv.Silence(enc, dst[:pre*vfb])
	}
	return now, avail, pre, vfb
}

// TapMix fills dst (client encoding enc, view channel count) with the
// device's final play mix — what the DAC consumes — starting at start,
// clamped to frames that have already passed device time. It is the
// read side of the server's broadcast channel: the engine taps the mix
// once per chunk per output format and fans the encoded bytes out to
// every subscriber by reference.
//
// Unlike Record it touches no record-path state (no RecRefCount, no
// record update, no IO counters — broadcast keeps its own metrics), so
// a device with zero recording clients can host a channel for free.
// Frames older than the buffer window and frames past the last valid
// playback sample (never written by any client, so the hardware region
// is silence-backfilled) read as silence.
func (d *Device) TapMix(start atime.ATime, dst []byte, enc sampleconv.Encoding) RecordResult {
	r := d.root()
	now, avail, pre, vfb := d.recordWindow(start, dst, enc)
	start, n := atime.Add(start, pre), avail-pre
	// Silence for the portion past the last valid playback sample.
	if post := int(atime.Sub(atime.Add(start, n), r.timeLastValid)); post > 0 {
		if post > n {
			post = n
		}
		sampleconv.Silence(enc, dst[(pre+n-post)*vfb:(pre+n)*vfb])
		n -= post
	}
	if n > 0 {
		d.readRing(r.playBuf, start, n, dst[pre*vfb:], enc, sampleconv.GainUnity)
	}
	return RecordResult{Avail: avail, Now: now}
}

// readRing converts n frames of buf from start into out (client encoding
// enc, view channel count) at Q16 gain q: one kernel selection per request
// for both ring regions, or the strided channel-view path.
func (d *Device) readRing(buf *ring.Ring, start atime.ATime, n int, out []byte, enc sampleconv.Encoding, q int32) {
	r := d.root()
	a, b := buf.Region(start, n)
	if d.parent != nil {
		d.blitView(a, b, out, enc, q, false, false)
		return
	}
	k := sampleconv.SelectKernel(enc, r.Cfg.Enc, false, q != sampleconv.GainUnity)
	ch := r.Cfg.Channels
	na := len(a) / r.frameBytes
	k(out, a, na*ch, q)
	k(out[enc.BytesPerSamples(na*ch):], b, (n-na)*ch, q)
}
