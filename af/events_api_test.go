package af_test

import (
	"testing"
	"time"

	"audiofile/af"
)

// ringTwiceAndDTMF injects a small scripted event sequence on the phone
// line: ring, ring, digit '5'.
func ringTwiceAndDTMF(r *stack) {
	line := r.srv.PhoneLine(0)
	line.RingPulse()
	line.RingPulse()
	line.RemoteDigits("5")
	r.srv.Sync()
}

func selectPhone(t *testing.T, c *af.Conn) {
	t.Helper()
	if err := c.SelectEvents(0, af.MaskAllEvents); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestEventsQueuedModes(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	selectPhone(t, c)
	// Nothing yet.
	if n, _ := c.EventsQueued(af.QueuedAlready); n != 0 {
		t.Fatalf("QueuedAlready = %d before events", n)
	}
	ringTwiceAndDTMF(r)
	// QueuedAlready still sees nothing (no reads happened).
	if n, _ := c.EventsQueued(af.QueuedAlready); n != 0 {
		t.Fatalf("QueuedAlready = %d, want 0 (no read yet)", n)
	}
	// QueuedAfterReading pulls what has arrived.
	deadline := time.Now().Add(2 * time.Second)
	n := 0
	for n < 3 && time.Now().Before(deadline) {
		var err error
		n, err = c.EventsQueued(af.QueuedAfterReading)
		if err != nil {
			t.Fatal(err)
		}
	}
	if n != 3 {
		t.Fatalf("QueuedAfterReading = %d, want 3", n)
	}
	// Now QueuedAlready agrees.
	if got, _ := c.EventsQueued(af.QueuedAlready); got != 3 {
		t.Fatalf("QueuedAlready after reading = %d", got)
	}
	// Pending (flush + read) also agrees.
	if got, _ := c.Pending(); got != 3 {
		t.Fatalf("Pending = %d", got)
	}
}

func TestIfEventBlocksUntilMatch(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	selectPhone(t, c)
	type result struct {
		ev  *af.Event
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		ev, err := c.IfEvent(func(ev *af.Event) bool {
			return ev.Code == af.EventPhoneDTMF
		})
		resCh <- result{ev, err}
	}()
	select {
	case <-resCh:
		t.Fatal("IfEvent returned before any event")
	case <-time.After(50 * time.Millisecond):
	}
	ringTwiceAndDTMF(r)
	select {
	case res := <-resCh:
		if res.err != nil || res.ev.Detail != '5' {
			t.Fatalf("IfEvent = %+v, %v", res.ev, res.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("IfEvent never matched")
	}
	// The two ring events are still queued; the DTMF one was removed.
	n, _ := c.EventsQueued(af.QueuedAlready)
	if n != 2 {
		t.Fatalf("queue after IfEvent = %d, want 2", n)
	}
}

func TestCheckIfEventNonBlocking(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	selectPhone(t, c)
	// Nothing there: returns nil without blocking.
	start := time.Now()
	ev, err := c.CheckIfEvent(func(*af.Event) bool { return true })
	if err != nil || ev != nil {
		t.Fatalf("CheckIfEvent = %+v, %v", ev, err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("CheckIfEvent blocked")
	}
	ringTwiceAndDTMF(r)
	// Poll until the events arrive.
	deadline := time.Now().Add(2 * time.Second)
	for ev == nil && time.Now().Before(deadline) {
		ev, err = c.CheckIfEvent(func(ev *af.Event) bool {
			return ev.Code == af.EventPhoneRing
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if ev == nil {
		t.Fatal("CheckIfEvent never found the ring")
	}
}

func TestPeekIfEventLeavesQueue(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	selectPhone(t, c)
	ringTwiceAndDTMF(r)
	ev, err := c.PeekIfEvent(func(ev *af.Event) bool {
		return ev.Code == af.EventPhoneDTMF
	})
	if err != nil || ev == nil || ev.Detail != '5' {
		t.Fatalf("PeekIfEvent = %+v, %v", ev, err)
	}
	// Still in the queue: NextEvent eventually delivers it.
	var got *af.Event
	for i := 0; i < 3; i++ {
		e, err := c.NextEvent()
		if err != nil {
			t.Fatal(err)
		}
		if e.Code == af.EventPhoneDTMF {
			got = e
		}
	}
	if got == nil {
		t.Fatal("peeked event vanished from the queue")
	}
}

func TestEventsCarryBothClocks(t *testing.T) {
	// §5.2: device events contain both the audio device time and the
	// server host's clock time.
	r := newStack(t)
	c := r.dial(t)
	selectPhone(t, c)
	r.step(4000) // advance device time before the event
	r.srv.PhoneLine(0).RingPulse()
	r.srv.Sync()
	ev, err := c.NextEvent()
	if err != nil {
		t.Fatal(err)
	}
	if af.TimeBefore(ev.Time, 4000) {
		t.Errorf("event device time = %d, want >= 4000", ev.Time)
	}
	if ev.HostSec == 0 {
		t.Error("event host clock missing")
	}
	// The host clock is near now.
	if d := time.Now().Unix() - int64(ev.HostSec); d < 0 || d > 60 {
		t.Errorf("host clock off by %d s", d)
	}
}

func TestFlashHook(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	selectPhone(t, c)
	if err := c.HookSwitch(0, true); err != nil {
		t.Fatal(err)
	}
	ev, _ := c.NextEvent()
	if ev.Code != af.EventPhoneHookSwitch || ev.Detail != 1 {
		t.Fatalf("expected off-hook event, got %+v", ev)
	}
	// Flash: a brief on-hook pulse, then back off hook.
	if err := c.FlashHook(0, 30); err != nil {
		t.Fatal(err)
	}
	ev, _ = c.NextEvent()
	if ev.Code != af.EventPhoneHookSwitch || ev.Detail != 0 {
		t.Fatalf("expected flash-down event, got %+v", ev)
	}
	ev, err := c.NextEvent()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Code != af.EventPhoneHookSwitch || ev.Detail != 1 {
		t.Fatalf("expected flash-up event, got %+v", ev)
	}
	offHook, _, _ := c.QueryPhone(0)
	if !offHook {
		t.Error("line not off hook after flash")
	}

	// Flashing an on-hook line is a BadMatch.
	c.HookSwitch(0, false)
	c.NextEvent() //nolint:errcheck — drain the hang-up event
	var got error
	c.SetErrorHandler(func(_ *af.Conn, pe *af.ProtoError) { got = pe })
	c.FlashHook(0, 30)
	c.Sync()
	if pe, ok := got.(*af.ProtoError); !ok || pe.Code != 8 {
		t.Errorf("flash on hook error = %v", got)
	}
}

// hookEvents reads hookswitch events until none has arrived for quiet and
// returns their details in order.
func hookEvents(t *testing.T, c *af.Conn, quiet time.Duration) (details []byte) {
	t.Helper()
	for idle := time.Now(); time.Since(idle) < quiet; {
		n, err := c.EventsQueued(af.QueuedAfterReading)
		if err != nil {
			t.Fatal(err)
		}
		for ; n > 0; n-- {
			ev, _ := c.NextEvent()
			if ev.Code == af.EventPhoneHookSwitch {
				details = append(details, ev.Detail)
			}
			idle = time.Now()
		}
	}
	return details
}

// TestFlashHookYieldsToHangUp: the re-hook a flash has pending belongs to
// the line, and a hang-up during the flash cancels it — the phone stays
// on hook, and the client sees only the hook events it caused.
func TestFlashHookYieldsToHangUp(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	selectPhone(t, c)
	c.HookSwitch(0, true)  //nolint:errcheck — a failure shows in the events
	c.FlashHook(0, 50)     //nolint:errcheck
	c.HookSwitch(0, false) //nolint:errcheck
	if got := hookEvents(t, c, 200*time.Millisecond); string(got) != "\x01\x00" {
		t.Errorf("hook events %v, want off hook then on hook and no more", got)
	}
	if offHook, _, err := c.QueryPhone(0); err != nil || offHook {
		t.Errorf("after hanging up during a flash: off hook %v, err %v", offHook, err)
	}
}

// TestFlashHookTooLong: the duration is a 32-bit value from the wire; one
// a central office would take for a hang-up is refused, not armed.
func TestFlashHookTooLong(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	var got *af.ProtoError
	c.SetErrorHandler(func(_ *af.Conn, pe *af.ProtoError) { got = pe })
	c.HookSwitch(0, true) //nolint:errcheck
	c.FlashHook(0, 2001)  //nolint:errcheck
	c.Sync()              //nolint:errcheck
	if got == nil || got.Code != 2 || got.BadValue != 2001 {
		t.Errorf("flash of 2001 ms drew %v, want BadValue(2001)", got)
	}
	if offHook, _, _ := c.QueryPhone(0); !offHook {
		t.Error("a refused flash opened the hookswitch")
	}
}

// TestCloseCancelsFlash: Close leaves no timer behind, so the line stays
// where the flash put it.
func TestCloseCancelsFlash(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	c.HookSwitch(0, true) //nolint:errcheck
	c.FlashHook(0, 50)    //nolint:errcheck
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	r.srv.Close()
	time.Sleep(150 * time.Millisecond)
	if r.srv.PhoneLine(0).OffHook() {
		t.Error("a flash's re-hook fired after Close")
	}
}
