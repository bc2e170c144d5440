// Package phonesim simulates an analog telephone line and the LoFi
// telephone line interface: hookswitch relay, ring and loop-current
// detection, and Touch-Tone decoding. It stands in for the paper's
// telephone hardware: the same five protocol events emerge from the same
// stimuli — an incoming call rings the line, digits (dialed locally by
// playing tone pairs, or sent by the remote caller) produce DTMF events,
// and hook transitions on either end produce hookswitch and loop-current
// events.
package phonesim

import (
	"sync"
	"time"

	"audiofile/internal/atime"
	"audiofile/internal/dsp"
	"audiofile/internal/sampleconv"
)

// EventKind identifies a line event, mirroring the four telephone protocol
// events.
type EventKind int

// Line event kinds.
const (
	EvRing EventKind = iota // Detail: 1 ring started, 0 ring stopped
	EvDTMF                  // Detail: the decoded digit
	EvLoop                  // Detail: 1 loop current present, 0 absent
	EvHook                  // Detail: 1 off hook, 0 on hook
)

// Event is one line state change. The device time is attached by the DDA
// when it drains the queue.
type Event struct {
	Kind   EventKind
	Detail byte
}

// A Line is a simulated telephone line. It implements vdev.PlaySink and
// vdev.RecordSource, so it plugs into a virtual CODEC device as its
// "analog side": audio the device plays goes down the line (and through
// the DTMF decoder), and audio on the line (injected by the simulated
// remote party) is what the device records. All methods are safe for
// concurrent use; the device side runs in the server loop while the
// exchange side (Remote* methods) may be driven by tests or a scripted
// caller.
type Line struct {
	mu sync.Mutex

	rate    int
	offHook bool // our hookswitch relay state
	ringing bool
	// remoteOffHook models the extension phone sharing the line; loop
	// current flows when it is off hook.
	remoteOffHook bool

	outDet *dsp.DTMFDetector // hears audio we transmit (local dialing)
	inDet  *dsp.DTMFDetector // hears audio from the far end

	incoming []byte // queued far-end audio (µ-law), consumed by Fill

	flash *time.Timer // the pending re-hook of a flash in progress, if any

	events []Event
}

// NewLine creates a line for an 8 kHz µ-law CODEC device.
func NewLine(rate int) *Line {
	return &Line{
		rate:   rate,
		outDet: dsp.NewDTMFDetector(rate),
		inDet:  dsp.NewDTMFDetector(rate),
	}
}

func (l *Line) push(ev Event) {
	l.events = append(l.events, ev)
}

// DrainEvents removes and returns all pending line events.
func (l *Line) DrainEvents() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	evs := l.events
	l.events = nil
	return evs
}

// --- device side (driven by the server) ---

// Play implements vdev.PlaySink: audio our device transmits onto the line.
// The Touch-Tone decoder listens here, so client-side tone dialing (the
// library's AFDialPhone) is really detected.
func (l *Line) Play(_ atime.ATime, data []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lin := make([]int16, len(data))
	sampleconv.ToLin16(lin, data, sampleconv.MU255, len(data))
	for _, d := range l.outDet.Feed(lin) {
		l.push(Event{Kind: EvDTMF, Detail: d})
	}
}

// Fill implements vdev.RecordSource: audio our device hears from the line.
// Off hook it is the far end's audio; on hook the line is quiet.
func (l *Line) Fill(_ atime.ATime, buf []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	if l.offHook {
		n = copy(buf, l.incoming)
		l.incoming = l.incoming[n:]
	}
	sampleconv.Silence(sampleconv.MU255, buf[n:])
}

// SetHook operates the hookswitch relay (the HookSwitch request). Going
// off hook answers a ringing call. It cancels a flash in progress: the
// relay stays where this call puts it.
func (l *Line) SetHook(offHook bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cancelFlash()
	l.setHook(offHook)
}

func (l *Line) setHook(offHook bool) {
	if l.offHook == offHook {
		return
	}
	l.offHook = offHook
	d := byte(0)
	if offHook {
		d = 1
	}
	l.push(Event{Kind: EvHook, Detail: d})
	if offHook && l.ringing {
		l.ringing = false
		l.push(Event{Kind: EvRing, Detail: 0})
	}
	if !offHook {
		// Hanging up flushes any queued far-end audio.
		l.incoming = nil
	}
}

// Flash opens the hookswitch for d and closes it again (the FlashHook
// request), then calls rehooked. The pending re-hook is the line's: SetHook
// and CancelFlash drop it, and a re-hook they beat to the lock does nothing
// and calls nothing.
func (l *Line) Flash(d time.Duration, rehooked func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cancelFlash()
	l.setHook(false)
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		l.mu.Lock()
		mine := l.flash == t
		if mine {
			l.flash = nil
			l.setHook(true)
		}
		l.mu.Unlock()
		if mine {
			rehooked()
		}
	})
	l.flash = t
}

// CancelFlash drops a flash's pending re-hook, leaving the relay open.
func (l *Line) CancelFlash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cancelFlash()
}

func (l *Line) cancelFlash() {
	if l.flash != nil {
		l.flash.Stop()
		l.flash = nil
	}
}

// OffHook reports the hookswitch state (QueryPhone).
func (l *Line) OffHook() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.offHook
}

// LoopCurrent reports whether loop current is present: the extension
// phone is off hook (QueryPhone).
func (l *Line) LoopCurrent() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.remoteOffHook
}

// --- exchange side (the simulated outside world) ---

// RingPulse delivers one ring cadence pulse from the exchange: a ring
// event each time the bell fires. The first pulse of a call also marks
// the line ringing.
func (l *Line) RingPulse() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.offHook {
		return // can't ring an answered line
	}
	l.ringing = true
	l.push(Event{Kind: EvRing, Detail: 1})
}

// StopRinging marks the caller giving up.
func (l *Line) StopRinging() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ringing {
		l.ringing = false
		l.push(Event{Kind: EvRing, Detail: 0})
	}
}

// RemoteAudio queues µ-law audio from the far end; the device records it
// (when off hook) and the line's decoder scans it for the caller's digits.
func (l *Line) RemoteAudio(mulaw []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.incoming = append(l.incoming, mulaw...)
	lin := make([]int16, len(mulaw))
	sampleconv.ToLin16(lin, mulaw, sampleconv.MU255, len(mulaw))
	for _, d := range l.inDet.Feed(lin) {
		l.push(Event{Kind: EvDTMF, Detail: d})
	}
}

// RemoteDigits is a convenience that synthesizes Touch-Tone bursts for
// each digit (50 ms on, 50 ms off, per Table 7) and feeds them through
// RemoteAudio, as a caller punching keys would.
func (l *Line) RemoteDigits(digits string) {
	for _, d := range []byte(digits) {
		lo, hi, ok := dsp.DTMFFreqs(d)
		if !ok {
			continue
		}
		on := synthPair(l.rate, lo, hi, l.rate/20)
		off := make([]byte, l.rate/20)
		sampleconv.Silence(sampleconv.MU255, off)
		l.RemoteAudio(on)
		l.RemoteAudio(off)
	}
}

// SetExtensionHook models the extension phone on the same line going off
// or on hook, which starts or stops loop current.
func (l *Line) SetExtensionHook(offHook bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.remoteOffHook == offHook {
		return
	}
	l.remoteOffHook = offHook
	d := byte(0)
	if offHook {
		d = 1
	}
	l.push(Event{Kind: EvLoop, Detail: d})
}

// synthPair renders n samples of a two-tone µ-law burst at DTMF levels.
func synthPair(rate int, lo, hi float64, n int) []byte {
	loAmp := dsp.AmplitudeForDBm(-4)
	hiAmp := dsp.AmplitudeForDBm(-2)
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		v := loAmp*dsp.Sin2Pi(lo*float64(i)/float64(rate)) +
			hiAmp*dsp.Sin2Pi(hi*float64(i)/float64(rate))
		out[i] = sampleconv.EncodeMuLaw(sampleconv.Clamp16(int(v)))
	}
	return out
}
