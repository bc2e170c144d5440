package af

import (
	"errors"
	"fmt"

	"audiofile/internal/proto"
)

// Broadcast channel subscriptions. A subscription turns the connection
// into a listener on a server-side channel: the server taps the device's
// final play mix, encodes it once per wire format, and pushes the chunks
// to every subscriber without a matching request. The library filters
// broadcast messages out of the server stream onto a per-subscription
// queue, exactly as it does for events.

// Chunk is one pushed block of channel audio, in the subscription
// context's encoding and channel count. Seq is the channel's chunk
// counter: consecutive values mean gap-free audio; a jump means chunks
// were dropped (locally, see Subscription.Dropped, or by a server
// backlog clamp, which keeps Seq contiguous but jumps Time).
type Chunk struct {
	Seq  uint16
	Time ATime // device time of the first sample
	Data []byte
}

// maxQueuedChunks bounds a subscription's local queue. A listener that
// stops calling Next loses the oldest chunks first and can see the gap
// in Seq and Dropped; the connection itself never stops reading.
const maxQueuedChunks = 256

// Subscription is a live attachment to a broadcast channel, created by
// AC.Subscribe. Like the rest of the library it serializes through the
// connection lock; Next blocks reading the connection, so a typical
// listener dedicates a goroutine to it.
type Subscription struct {
	conn    *Conn
	ac      *AC
	channel uint32 // routing key: the channel's device index

	// Guarded by conn.mu.
	queue   []Chunk
	dropped uint64 // chunks discarded because the queue was full
	closed  bool
}

// errUnsubscribed reports use of a closed subscription.
var errUnsubscribed = errors.New("af: subscription closed")

// Subscribe attaches the audio context to its device's broadcast channel
// (AFSubscribe) and returns the live subscription plus the device time
// at which the stream starts. The pushed chunks arrive in the context's
// encoding and channel count; compressed (ADPCM) contexts cannot
// subscribe, and a connection may hold at most one subscription per
// device.
func (ac *AC) Subscribe() (*Subscription, ATime, error) {
	c := ac.conn
	c.mu.Lock()
	defer c.mu.Unlock()
	if ac.sub != nil && !ac.sub.closed {
		return nil, 0, fmt.Errorf("af: context already subscribed")
	}
	rep, err := c.roundTrip(proto.AppendSubscribe(&c.w, ac.id))
	if err != nil {
		return nil, 0, err
	}
	// The reply's Aux is the channel id (device index) the server stamps
	// into every broadcast header; route incoming chunks by it.
	sub := &Subscription{conn: c, ac: ac, channel: rep.Aux}
	c.subs[sub.channel] = sub
	ac.sub = sub
	// Pushed chunks may sit unread on the socket after the subscription
	// ends here — the server keeps pushing until it sees the teardown — so
	// from now on every exchange on this socket reads first.
	c.pushed = true
	return sub, ATime(rep.Time), nil
}

// Next returns the next pushed chunk, flushing the output buffer and
// blocking until one arrives (the broadcast counterpart of NextEvent).
// The returned chunk's Data is owned by the caller.
func (s *Subscription) Next() (Chunk, error) {
	c := s.conn
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.waitFor(s.ready); err != nil {
		return Chunk{}, err
	}
	return s.take()
}

// TryNext returns a queued chunk without blocking, after reading
// whatever the server has already pushed. ok is false when no chunk is
// available.
func (s *Subscription) TryNext() (ch Chunk, ok bool, err error) {
	c := s.conn
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.pollFor(s.ready); err != nil || !s.ready() {
		return Chunk{}, false, err
	}
	ch, err = s.take()
	return ch, err == nil, err
}

// ready reports whether Next or TryNext can return: a chunk is queued,
// or the subscription is closed (which empties its queue). c.mu held.
func (s *Subscription) ready() bool { return len(s.queue) > 0 || s.closed }

// take pops the oldest queued chunk of a ready subscription. c.mu held.
func (s *Subscription) take() (Chunk, error) {
	if s.closed {
		return Chunk{}, errUnsubscribed
	}
	ch := s.queue[0]
	s.queue = s.queue[1:]
	return ch, nil
}

// Dropped returns the number of chunks discarded locally because the
// subscription's queue overflowed (the listener fell more than
// maxQueuedChunks behind).
func (s *Subscription) Dropped() uint64 {
	s.conn.mu.Lock()
	defer s.conn.mu.Unlock()
	return s.dropped
}

// Unsubscribe detaches from the channel (AFUnsubscribe). Chunks already
// queued are discarded; the call round-trips so no further broadcasts
// for this subscription are in flight when it returns.
func (s *Subscription) Unsubscribe() error {
	c := s.conn
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.closed {
		return nil
	}
	s.detachLocked()
	_, err := c.roundTrip(proto.AppendUnsubscribe(&c.w, s.ac.id))
	return err
}

// detachLocked tears down the client-side subscription state. c.mu held.
func (s *Subscription) detachLocked() {
	s.closed = true
	s.queue = nil
	delete(s.conn.subs, s.channel)
	if s.ac.sub == s {
		s.ac.sub = nil
	}
}

// deliverBroadcast routes a pushed chunk to its subscription, copying
// the payload out of the connection's reusable message storage. Called
// from dispatchAsync with c.mu held.
func (c *Conn) deliverBroadcast(b *proto.BroadcastData) {
	s := c.subs[b.Channel]
	if s == nil || s.closed {
		return // unsubscribed while chunks were in flight
	}
	if len(s.queue) >= maxQueuedChunks {
		s.queue = s.queue[1:]
		s.dropped++
	}
	data := make([]byte, len(b.Data))
	copy(data, b.Data)
	s.queue = append(s.queue, Chunk{Seq: b.Seq, Time: ATime(b.Time), Data: data})
}
