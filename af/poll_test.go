package af_test

import (
	"testing"
	"time"

	"audiofile/af"
)

// TestPollIdleDoesNotWait: on a socket a poll is one read attempt that
// finds nothing, not a 1 ms deadline waited out, so a thousand Pending
// calls on an idle connection take far less than the second a thousand
// deadlines would.
func TestPollIdleDoesNotWait(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	selectPhone(t, c)
	start := time.Now()
	for i := 0; i < 1000; i++ {
		if n, err := c.Pending(); err != nil || n != 0 {
			t.Fatalf("Pending = %d, %v", n, err)
		}
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("1000 idle Pending calls took %v", d)
	}
}

// TestPollSeesEventBeforeSync: events the server sent before a Sync's
// reply are read by the Sync's own wait, whose RawConn.Read reset the
// readiness they raised, and queued; a poll after it finds them without
// reading.
func TestPollSeesEventBeforeSync(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	selectPhone(t, c)
	ringTwiceAndDTMF(r)
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if n, err := c.EventsQueued(af.QueuedAlready); err != nil || n != 3 {
		t.Fatalf("after Sync, %d events queued (%v), want 3", n, err)
	}
	if n, err := c.Pending(); err != nil || n != 3 {
		t.Fatalf("Pending = %d, %v; want 3", n, err)
	}
	ev, err := c.CheckIfEvent(func(ev *af.Event) bool { return ev.Code == af.EventPhoneDTMF })
	if err != nil || ev == nil || ev.Detail != '5' {
		t.Fatalf("CheckIfEvent = %+v, %v", ev, err)
	}
}
