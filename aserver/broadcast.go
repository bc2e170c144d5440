package aserver

import (
	"encoding/binary"

	"audiofile/internal/atime"
	"audiofile/internal/core"
	"audiofile/internal/proto"
	"audiofile/internal/sampleconv"
)

// Broadcast channels: the encode-once fan-out path.
//
// A channel is a device's final play mix, tapped server-side and pushed
// to every subscribed client. The defining property is that the work of
// producing the wire bytes is independent of the listener count: each
// pump cycle cuts one chunk per channel, encodes it once per distinct
// wire format into a pooled refcounted message, and enqueues the same
// message on every subscriber's output queue. A listener costs one
// enqueue and one writev iovec entry per chunk — no copy, no re-encode.
//
// All broadcast state hangs off the owning engine and is guarded by
// e.mu, like every other per-device structure. The pump runs inside
// updateLocked, so it is serialized with plays, records, and patches on
// the same device; it never blocks on a subscriber (send is non-blocking
// and a slow listener is handled by the ordinary overload machinery).
//
// Lock ordering is unchanged: subscribe/unsubscribe and the pump take
// only e.mu; the enqueue path (client.send) takes no locks at all.

// maxBroadcastChunkFrames bounds a single broadcast message's payload.
// A backlog larger than this is cut into several messages rather than
// one huge writev entry; at the largest frame size (stereo lin32) this
// is a 32 KiB payload, far under proto.MaxReplyExtraBytes.
const maxBroadcastChunkFrames = 4096

// bsub is one subscription: a client listening to a channel through an
// audio context. The ac pins the format; the client owns the queue.
type bsub struct {
	c *client
	a *ac
}

// bgroup is the unit of encoding: all subscribers of one device that
// share a wire format (sample encoding + client byte order). The chunk
// is encoded once per group and fanned out by reference; the group also
// owns the per-channel sequence counter those subscribers observe.
//
// The byte order is part of the key because the shared message includes
// the 16-byte header, which the client parses in its connection's order
// — two µ-law listeners with opposite orders need identical payloads but
// different headers, hence different groups.
type bgroup struct {
	dev   *core.Device
	enc   sampleconv.Encoding
	order binary.ByteOrder
	be    bool // swap payload bytes (big-endian client, multi-byte samples)
	vfb   int  // payload bytes per frame (enc × channel count)
	seq   uint16
	subs  []*bsub
}

// bchannel is an engine's broadcast state: the groups sharing the
// engine's devices and the single consumption cursor. One cursor
// suffices because every device on an engine (root and views) shares
// the root's clock.
type bchannel struct {
	taken  atime.ATime // mix consumed through here, all groups
	groups []*bgroup
	nsubs  int
}

// subscribeLocked attaches c's audio context a to its device's broadcast
// channel. Returns a proto.Err* code, or 0 on success. Caller holds e.mu.
func (e *engine) subscribeLocked(c *client, a *ac) uint8 {
	if a.subscribed {
		return proto.ErrValue
	}
	// A stateful coder cannot be shared across listeners: ADPCM contexts
	// cannot subscribe.
	if a.enc == sampleconv.ADPCM4 {
		return proto.ErrMatch
	}
	// One subscription per device per connection: broadcasts are routed
	// client-side by channel (device index), so a second subscription on
	// the same device would be indistinguishable from the first.
	for _, g := range e.bcast.groups {
		if g.dev != a.dev {
			continue
		}
		for _, sb := range g.subs {
			if sb.c == c {
				return proto.ErrValue
			}
		}
	}
	if e.bcast.nsubs == 0 {
		// First listener on this engine: the channel starts consuming the
		// mix from now. (A later subscriber joins mid-stream at the next
		// chunk boundary.)
		e.bcast.taken = e.root.Now()
	}
	be := c.order == binary.BigEndian && a.enc.BytesPerSamples(1) > 1
	var g *bgroup
	for _, cand := range e.bcast.groups {
		if cand.dev == a.dev && cand.enc == a.enc && cand.order == c.order {
			g = cand
			break
		}
	}
	if g == nil {
		g = &bgroup{dev: a.dev, enc: a.enc, order: c.order, be: be,
			vfb: a.enc.BytesPerSamples(a.channels)}
		e.bcast.groups = append(e.bcast.groups, g)
	}
	g.subs = append(g.subs, &bsub{c: c, a: a})
	a.subscribed = true
	e.bcast.nsubs++
	return 0
}

// unsubscribeLocked detaches a from its channel. Idempotent: a context
// that is not subscribed (or was already dropped by the pump's dead-sub
// sweep) is a no-op. Caller holds e.mu.
func (e *engine) unsubscribeLocked(a *ac) {
	if a.subscribed {
		e.dropSubsLocked(func(sb *bsub) bool { return sb.a == a })
	}
}

// dropClientSubs discards every subscription the client holds on this
// engine. Called by the control plane when a client unregisters (the
// broadcast analogue of dropClientParks).
func (e *engine) dropClientSubs(c *client) {
	e.mu.Lock()
	e.dropSubsLocked(func(sb *bsub) bool { return sb.c == c })
	e.mu.Unlock()
}

// dropSubsLocked removes every subscriber match selects, clearing its
// context's subscribed mark, and drops the groups it leaves empty. Caller
// holds e.mu.
func (e *engine) dropSubsLocked(match func(*bsub) bool) {
	b := &e.bcast
	groups := b.groups[:0]
	for _, g := range b.groups {
		subs := g.subs[:0]
		for _, sb := range g.subs {
			if !match(sb) {
				subs = append(subs, sb)
				continue
			}
			sb.a.subscribed = false
			b.nsubs--
		}
		clear(g.subs[len(subs):])
		if g.subs = subs; len(subs) > 0 {
			groups = append(groups, g)
		}
	}
	clear(b.groups[len(groups):])
	b.groups = groups
}

// pumpBroadcast advances the channel cursor to the device's current time
// and emits the elapsed mix as broadcast chunks. Runs from updateLocked
// (caller holds e.mu) after the device update, so the play buffer is
// settled through "now".
func (e *engine) pumpBroadcast() {
	b := &e.bcast
	if len(b.groups) == 0 {
		return
	}
	now := e.root.Now()
	span := int(atime.Sub(now, b.taken))
	// Backlog clamp: if the pump fell behind by more than half the buffer
	// (a stalled scheduler, a manual clock jumped far forward), skip
	// ahead rather than flood every queue with stale audio. Subscribers
	// see contiguous sequence numbers with a Time jump.
	if max := e.root.BufFrames() / 2; span > max {
		b.taken = atime.Add(now, -max)
		span = max
	}
	// Chunks are cut on 4-frame boundaries so every payload is a whole
	// number of 32-bit units at any frame size (1, 2, 4 or 8 bytes); the
	// sub-chunk remainder carries into the next pump.
	span &^= 3
	for span > 0 && len(b.groups) > 0 {
		n := span
		if n > maxBroadcastChunkFrames {
			n = maxBroadcastChunkFrames
		}
		e.emitChunkLocked(b.taken, n)
		b.taken = atime.Add(b.taken, n)
		span -= n
	}
}

// emitChunkLocked encodes the mix region [start, start+nframes) once per
// group and enqueues the resulting message on every subscriber in the
// group. Caller holds e.mu.
func (e *engine) emitChunkLocked(start atime.ATime, nframes int) {
	// Sweep dead subscribers first so a group kept alive only by a
	// torn-down client does not pay for an encode.
	e.dropSubsLocked(func(sb *bsub) bool { return sb.c.dead.Load() })
	if len(e.bcast.groups) == 0 {
		return
	}
	for _, g := range e.bcast.groups {
		m := getMsg("broadcast")
		buf := msgBytes(m, proto.BroadcastHeaderBytes+nframes*g.vfb)
		payload := buf[proto.BroadcastHeaderBytes:]
		g.dev.TapMix(start, payload, g.enc)
		if g.be {
			sampleconv.SwapBytes(g.enc, payload)
		}
		bd := proto.BroadcastData{
			Enc:           uint8(g.enc),
			BigEndianData: g.be,
			Seq:           g.seq,
			Time:          uint32(start),
			Channel:       uint32(g.dev.Index),
		}
		proto.PutBroadcastHeader(g.order, buf, &bd, len(payload))
		g.seq++
		e.m.bcastEncodes.Inc()
		// The encode is done: hand one reference per subscriber to the
		// send path. A failed send (dead client, closed queue) releases
		// its own reference, so the count balances whatever happens.
		m.retain(int32(len(g.subs) - 1))
		sent := 0
		for _, sb := range g.subs {
			if sb.c.send(m) {
				sent++
			}
		}
		e.m.bcastMsgs.Add(uint64(sent))
		e.m.bcastBytes.Add(uint64(sent * len(buf)))
		e.m.bcastDrops.Add(uint64(len(g.subs) - sent))
	}
	// A time-slice counts as a chunk only if some live group consumed it,
	// after its encodes: the broadcast law (DeviceStats.Check) holds even
	// when the dead-subscriber sweep empties the channel mid-span.
	e.m.bcastChunks.Inc()
}
