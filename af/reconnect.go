package af

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"audiofile/internal/proto"
)

// Transparent reconnection. An AudioFile session is mostly replayable
// state: the handshake is stateless, audio context ids are allocated by
// the client, and the library mirrors every context's attributes
// locally. So when the transport dies under an operation, the library
// can redial with backoff, re-handshake, recreate the live contexts
// verbatim, and either retry (idempotent operations: GetTime) or
// surface a typed ReconnectedError (streaming operations, whose device
// time base moved across the restart — the caller resynchronizes via
// GetTime or the OnResync hook and resumes).
//
// What does NOT survive a reconnect: buffered unflushed requests (never
// acknowledged, dropped), server-side coder state for compressed (ADPCM)
// contexts (the stream realigns at the next block, audible as a brief
// glitch), event selections, and properties.

// ReconnectOptions configures transparent reconnection; see
// Conn.SetReconnect.
type ReconnectOptions struct {
	// Redial opens a replacement transport. nil redials the address the
	// connection was Opened with (connections made by NewConn over a
	// custom transport must supply it).
	Redial func() (net.Conn, error)
	// MaxAttempts bounds redial attempts per failure (default 5).
	MaxAttempts int
	// Backoff is the delay before the second attempt, doubling per
	// attempt (default 50ms) up to MaxBackoff (default 2s). The first
	// attempt is immediate.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// OnResync, if set, runs (without the connection lock) after every
	// successful reconnect: the hook for streaming clients to re-read
	// device time and reanchor their stream.
	OnResync func(*Conn)
}

// SetReconnect enables transparent reconnection-with-backoff. While a
// reconnect is in progress the connection lock is held, so concurrent
// operations wait for its outcome: at most MaxAttempts dials and setups,
// each bounded (5 s apiece; a custom Redial bounds its own dial), plus
// the backoff between them.
func (c *Conn) SetReconnect(o ReconnectOptions) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if o.Redial == nil {
		if c.network == "" {
			return errors.New("af: SetReconnect: connection was not made by Open; supply Redial")
		}
		network, addr := c.network, c.addr
		o.Redial = func() (net.Conn, error) { return dial(network, addr) }
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 5
	}
	if o.Backoff == 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = 2 * time.Second
	}
	c.reconnect = &o
	return nil
}

// ReconnectedError reports that the transport failed mid-operation and
// the session was re-established. The operation itself did not complete
// (or its completion is unknown); the caller should resynchronize device
// time and resume. Err is the transport failure that triggered the
// reconnect.
type ReconnectedError struct {
	Err error
}

func (e *ReconnectedError) Error() string {
	return fmt.Sprintf("af: reconnected after connection failure: %v", e.Err)
}

func (e *ReconnectedError) Unwrap() error { return e.Err }

// ServerClosedError reports that the server deliberately closed the
// session with a typed notice — an Overload eviction or a Drain
// shutdown — rather than the transport failing on its own. Code is the
// proto.Err* code from the server's final message. It always surfaces:
// redialing would only bounce against the server that sent it.
type ServerClosedError struct {
	Code uint8
	Err  error // the transport error that followed the notice
}

func (e *ServerClosedError) Error() string {
	return fmt.Sprintf("af: server closed the connection: %s", GetErrorText(e.Code))
}

func (e *ServerClosedError) Unwrap() error { return e.Err }

// shouldReconnect reports whether err warrants a reconnection attempt:
// reconnection is enabled, the connection is not deliberately closed,
// and the failure is the transport dying on its own — a protocol error
// is the server answering and a ServerClosedError the server ending the
// session, neither a reason to redial. c.mu held.
func (c *Conn) shouldReconnect(err error) bool {
	if c.reconnect == nil || c.closed || err == nil {
		return false
	}
	var pe *ProtoError
	var sce *ServerClosedError
	return !errors.As(err, &pe) && !errors.As(err, &sce)
}

// recovering runs op under c.mu: the one place an operation's failure
// turns into a reconnect. When op's error warrants one and the session
// is re-established, a retrying caller (an idempotent operation) runs op
// again on the new session; any other gets a ReconnectedError, because
// the device time base moved across the restart and the caller must
// reanchor before resuming. A caller that queued for c.mu behind a
// reconnect that gave up returns its failure without trying again, so
// callers waiting together share one bound. The OnResync hook runs after
// c.mu is released.
func (c *Conn) recovering(retry bool, op func() error) (err error) {
	var onResync func(*Conn)
	defer func() {
		if onResync != nil {
			onResync(c)
		}
	}()
	gaveUp := c.gaveUp.Load() // before the lock, which a reconnect holds
	c.mu.Lock()
	defer c.mu.Unlock()
	err = op()
	if !c.shouldReconnect(err) || c.gaveUp.Load() != gaveUp || c.reconnectLocked() != nil {
		return err
	}
	onResync = c.reconnect.OnResync
	if retry {
		return op()
	}
	return &ReconnectedError{Err: err}
}

// reconnectLocked re-establishes the session with backoff: redial,
// handshake, replay the live audio contexts, sync. c.mu held throughout
// (including the backoff sleeps).
func (c *Conn) reconnectLocked() error {
	r := c.reconnect
	if r == nil {
		return errClosed
	}
	backoff := r.Backoff
	var lastErr error
	for attempt := 0; attempt < r.MaxAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > r.MaxBackoff {
				backoff = r.MaxBackoff
			}
		}
		nc, err := r.Redial()
		if err != nil {
			lastErr = err
			continue
		}
		if err := c.resetOnto(nc); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	c.gaveUp.Add(1)
	return fmt.Errorf("af: reconnect failed after %d attempts: %w", r.MaxAttempts, lastErr)
}

// resetOnto rebuilds the session over a fresh transport: handshake with
// the connection's byte order, swap the transport in, replay CreateAC
// for every live context (ids are client-allocated and attributes are
// mirrored locally, so the replay is verbatim), then one sync round trip
// so any replay error surfaces here rather than later, inside the
// handshake's setupTimeout. It owns nc: on failure, every transport it
// opened is closed. c.mu held.
func (c *Conn) resetOnto(nc net.Conn) (err error) {
	// The routing key is replayed verbatim: after a backend death the
	// redial lands on the router again, and the same key must drive the
	// directory lookup that places the session on the replacement
	// backend.
	nc, rep, err := handshake(nc, c.order, c.route)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			nc.Close()
		}
	}()
	// The session state assumes the same server configuration: the
	// existing Device pointers (held by live ACs) must stay valid, so the
	// server must still export at least the devices we knew about.
	if len(rep.Devices) < len(c.devices) {
		return fmt.Errorf("af: reconnect: server exports %d devices, session had %d",
			len(rep.Devices), len(c.devices))
	}
	c.conn = nc
	c.bindRaw()
	c.pushed = false
	c.in.buf.Put()
	c.in.buf, c.in.err = nil, nil
	c.resetOutput()
	c.sentSeq = 0
	c.ioErr = nil
	c.closeNotice = 0
	// Subscriptions do not survive a reconnect (like event selections):
	// the new session has no server-side channel state, so the listener
	// re-subscribes after resynchronizing.
	for _, s := range c.subs {
		s.closed = true
		s.queue = nil
		s.ac.sub = nil
	}
	clear(c.subs)
	// Replay the live contexts in id order with a full mask: the mirrored
	// Attributes are the complete context state.
	ids := make([]uint32, 0, len(c.acs))
	for id := range c.acs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	const fullMask = ACPlayGain | ACRecordGain | ACPreemption | ACEncoding | ACEndian | ACChannels
	for _, id := range ids {
		a := c.acs[id]
		err := proto.AppendCreateAC(&c.w, proto.CreateACReq{
			AC:     a.id,
			Device: uint32(a.Device.Index),
			Mask:   fullMask,
			Attrs:  wireAttrs(a.Attributes),
		})
		if err != nil {
			return err
		}
		c.sentSeq++
	}
	err = c.syncLocked()
	nc.SetDeadline(time.Time{}) //nolint:errcheck — setup armed it, or the transport has none
	return err
}
