package af

import (
	"audiofile/internal/proto"
)

// Event queue handling (§6.1.4): the library filters events out of the
// server stream onto a private queue, interspersed with replies on the
// same connection.

// Queued modes for EventsQueued. Polling is a flush boundary (see
// pollFor), so AfterReading and AfterFlush both drain the output
// buffer before probing; only QueuedAlready is guaranteed wire-silent.
const (
	QueuedAlready      = 0 // only count events already read
	QueuedAfterReading = 1 // also read anything available without blocking
	QueuedAfterFlush   = 2 // flush the output buffer, then as AfterReading
)

// SelectEvents registers interest in event classes on a device
// (AFSelectEvents). mask is a bitwise OR of the Mask* constants.
func (c *Conn) SelectEvents(device int, mask uint32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.oneWay(proto.AppendSelectEvents(&c.w, proto.SelectEventsReq{
		Device: uint32(device), Mask: mask,
	}))
}

// Pending returns the number of events received but not yet processed
// (AFPending). It flushes the output buffer and reads anything available.
func (c *Conn) Pending() (int, error) {
	return c.EventsQueued(QueuedAfterFlush)
}

// EventsQueued checks the event queue per the given mode
// (AFEventsQueued).
func (c *Conn) EventsQueued(mode int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if mode == QueuedAlready {
		return len(c.events), nil
	}
	err := c.pollFor(func() bool { return false })
	return len(c.events), err
}

// NextEvent returns the next event, flushing the output buffer and
// blocking until one arrives (AFNextEvent).
func (c *Conn) NextEvent() (*Event, error) {
	return c.IfEvent(func(*Event) bool { return true })
}

// IfEvent blocks until an event satisfying the predicate is found,
// removes it from the queue, and returns it (AFIfEvent).
func (c *Conn) IfEvent(pred func(*Event) bool) (ev *Event, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	err = c.waitFor(func() bool { ev = c.takeMatching(pred); return ev != nil })
	return ev, err
}

// CheckIfEvent removes and returns a matching queued event without
// blocking; it reads whatever is available first (AFCheckIfEvent).
func (c *Conn) CheckIfEvent(pred func(*Event) bool) (ev *Event, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	err = c.pollFor(func() bool { ev = c.takeMatching(pred); return ev != nil })
	return ev, err
}

// PeekIfEvent blocks until a matching event is queued and returns it
// without removing it (AFPeekIfEvent).
func (c *Conn) PeekIfEvent(pred func(*Event) bool) (ev *Event, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	err = c.waitFor(func() bool {
		for _, ev = range c.events {
			if pred(ev) {
				return true
			}
		}
		ev = nil
		return false
	})
	return ev, err
}

// takeMatching removes and returns the first queued event satisfying
// pred, or nil.
func (c *Conn) takeMatching(pred func(*Event) bool) *Event {
	for i, ev := range c.events {
		if pred(ev) {
			c.events = append(c.events[:i], c.events[i+1:]...)
			return ev
		}
	}
	return nil
}
