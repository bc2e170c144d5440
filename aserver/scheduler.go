package aserver

import "time"

// The update plane is the Go runtime's timers. Every engine holds one
// *time.Timer from time.AfterFunc — a passive entry in the runtime's timer
// heap that starts a goroutine only for the duration of a fire — so a
// server hosts any number of devices with no resident goroutine of its
// own. The control plane's three timed jobs are the standard library's
// too: the overload sweep is a self-re-arming AfterFunc (overload.go), the
// flash-hook re-hook a one-shot AfterFunc (dispatch.go), Drain's poll a
// Ticker on its caller (pollUntil).
//
// Protocol, per engine:
//
//   - The engine has two timed jobs (§7.3.1), both plain fields guarded
//     by e.mu: the periodic update (e.nextUpdate) and the resumption of
//     blocked records (each park's wake). It needs no queue: parks are
//     bounded by the device's clients and every update walks all of them
//     anyway, so finding the due ones is a scan of the same map.
//   - The timer is armed for min(next update, earliest park wake).
//     Arming happens under e.mu — by a pass before it releases the lock,
//     or by wakeLocked when a new wake beats the armed deadline.
//   - A fire runs pass on its own short-lived goroutine: take e.mu
//     through the instrumented lockTimed path, run what is due, re-arm,
//     release.
//
// Nothing dedupes fires, because an extra pass is harmless: a fire whose
// goroutine the runtime had already started when wakeLocked promoted the
// timer is followed by a second, which finds nothing due and re-arms.
//
// Liveness invariant: until the engine is stopped, its timer is armed for
// min(next update, earliest park wake) or a fire is on its way to e.mu —
// and every pass re-arms under the lock before it returns.

// enginesPerPhase is how many engines' periodic updates fall due together.
// A fleet built in one loop would otherwise tick in step: every timer
// fires at once, and the last engine's pass starts after all the others'
// have run — at 512 telephone lines on one P, half an update interval
// late. Each engine keeps the phase it starts in, so a phase is as large
// as that allows: an idle process pays a wake-up (about a dozen idle
// passes' worth of CPU) per phase, and 128 telephone-line passes are a
// few milliseconds. A server of up to 128 engines has one phase.
const enginesPerPhase = 128

// start stamps the first periodic update (§7.2) and arms the engine's
// timer for it. The update is due within an interval of the timer being
// armed, not of the engine being built: New may spend longer than that
// building a large fleet.
func (e *engine) start() {
	phases := (len(e.s.engines) + enginesPerPhase - 1) / enginesPerPhase
	first := e.interval * time.Duration(e.idx/enginesPerPhase+1) / time.Duration(phases)
	e.mu.Lock()
	e.nextUpdate = time.Now().Add(first)
	e.armed = e.nextUpdate
	e.timer = time.AfterFunc(first, e.fire)
	e.mu.Unlock()
}

// fire is the timer's callback: one pass, at the time the runtime ran it.
func (e *engine) fire() { e.pass(time.Now()) }

// pass runs what is due at now: the periodic update if it is — it retries
// every park — else only the parks whose wake has come. The next update is
// computed from the fire's own now, so a fire that runs late does not
// silently stretch the period; now is also the start reading lockTimed
// measures from, and one more reading at the end closes the hold — two
// clock reads per pass, as for a dispatch group. It re-arms the
// timer under the same hold of the engine lock: any wakeLocked that lands
// after the unlock sees the deadline armed here and promotes it if it
// holds an earlier one.
func (e *engine) pass(now time.Time) {
	held := e.m.lockTimed(&e.mu, now)
	if e.stopped {
		e.m.unlockTimed(&e.mu, held, time.Since(now))
		return
	}
	e.s.sm.schedTickLag.Observe(max(0, now.Sub(e.armed).Nanoseconds()))
	if !now.Before(e.nextUpdate) {
		e.updateLocked()
		e.nextUpdate = now.Add(e.interval)
	} else {
		for c, p := range e.parks {
			if !p.wake.IsZero() && !now.Before(p.wake) {
				e.retryParked(c, p)
			}
		}
	}
	e.armed = e.nextUpdate
	for _, p := range e.parks {
		if !p.wake.IsZero() && p.wake.Before(e.armed) {
			e.armed = p.wake
		}
	}
	e.timer.Reset(e.armed.Sub(now))
	e.m.unlockTimed(&e.mu, held, time.Since(now))
}

// stopEngines is the update plane's shutdown: under each engine's lock,
// mark it stopped, stop its timer, cancel the re-hook a flash on its line
// has pending and discard any park still registered.
// A fire already on its way to the lock finds the engine stopped and
// returns without re-arming, so once this returns no pass is running and
// none can start. There is nothing to join.
func (s *Server) stopEngines() {
	for _, e := range s.engines {
		e.mu.Lock()
		e.stopped = true
		e.timer.Stop()
		if e.line != nil {
			e.line.CancelFlash()
		}
		for c, p := range e.parks {
			e.finishPark(c, p, false)
		}
		e.mu.Unlock()
	}
}

// pollUntil runs cond on the caller every interval until it returns true
// or deadline passes (or the server shuts down). This is how Drain watches
// the data plane empty.
func (s *Server) pollUntil(interval time.Duration, deadline time.Time, cond func() bool) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			if cond() || now.After(deadline) {
				return
			}
		case <-s.done:
			return
		}
	}
}
