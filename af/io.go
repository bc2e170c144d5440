package af

import (
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"audiofile/internal/proto"
)

// Low-level request and reply machinery. All functions here require
// c.mu held.

// errClosed reports use of a closed connection.
var errClosed = errors.New("af: connection closed")

// oneWay finishes a request that draws no reply, given what the
// proto.Append* call that buffered it returned: it counts the request and
// runs the post-request hooks, synchronous mode and the after function.
func (c *Conn) oneWay(err error) error {
	if err != nil {
		return err
	}
	c.sentSeq++
	if c.afterFunc != nil {
		c.afterFunc(c)
	}
	if c.synchronous {
		return c.syncLocked()
	}
	return nil
}

// flushLocked writes the buffered requests to the server (AFFlush).
func (c *Conn) flushLocked() error {
	if c.ioErr != nil {
		return c.ioErr
	}
	if c.closed {
		return errClosed
	}
	if len(c.w.Buf) == 0 {
		return nil
	}
	_, err := c.conn.Write(c.w.Buf)
	c.w.Reset()
	if err != nil {
		return c.ioError(err)
	}
	return nil
}

// Flush sends all buffered requests to the server.
func (c *Conn) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked()
}

// ioError records a fatal transport error and invokes the I/O error
// handler. If the server announced why it was closing the session (an
// Overload eviction or Drain shutdown notice), the transport failure is
// wrapped in a ServerClosedError carrying that code.
func (c *Conn) ioError(err error) error {
	if c.ioErr == nil {
		if c.closeNotice != 0 {
			err = &ServerClosedError{Code: c.closeNotice, Err: err}
		}
		c.ioErr = fmt.Errorf("af: connection error: %w", err)
		if c.ioErrHandler != nil {
			c.ioErrHandler(c, c.ioErr)
		} else {
			fmt.Fprintf(os.Stderr, "%v\n", c.ioErr)
		}
	}
	return c.ioErr
}

// readMessage reads the next server message, blocking.
func (c *Conn) readMessage() (*proto.Message, error) {
	if c.ioErr != nil {
		return nil, c.ioErr
	}
	if err := proto.ReadMessageInto(c.br, c.order, &c.rmsg); err != nil {
		return nil, c.ioError(err)
	}
	return &c.rmsg, nil
}

// pollMessage reads one message if any data is ready, without blocking
// for more than a millisecond for the first byte. Polling is a flush
// boundary, like awaiting a reply: any write-combined requests still in
// the output buffer go to the wire first (in one write), so a client
// can never poll for the effect of a request it has not yet sent.
func (c *Conn) pollMessage() (*proto.Message, bool, error) {
	if err := c.flushLocked(); err != nil {
		return nil, false, err
	}
	if err := c.conn.SetReadDeadline(time.Now().Add(time.Millisecond)); err != nil {
		// A transport that cannot arm a deadline would turn the probe
		// below into a blocking read; fail the poll instead.
		return nil, false, c.ioError(err)
	}
	_, err := c.br.ReadByte()
	// Clear the deadline before anything else: a connection left with the
	// stale 1ms deadline would spuriously time out every later blocking
	// read. A failure here poisons the connection the same way.
	clearErr := c.conn.SetReadDeadline(time.Time{})
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			if clearErr != nil {
				return nil, false, c.ioError(clearErr)
			}
			return nil, false, nil
		}
		return nil, false, c.ioError(err)
	}
	if clearErr != nil {
		return nil, false, c.ioError(clearErr)
	}
	// Put the probe byte back and parse from the buffered reader itself:
	// UnreadByte is always valid immediately after ReadByte, and it avoids
	// building a two-reader chain (and two allocations) per poll.
	if err := c.br.UnreadByte(); err != nil {
		return nil, false, c.ioError(err)
	}
	if err := proto.ReadMessageInto(c.br, c.order, &c.rmsg); err != nil {
		return nil, false, c.ioError(err)
	}
	return &c.rmsg, true, nil
}

// dispatchAsync handles a message that is not the awaited reply: events
// join the queue; errors go to the error handler.
func (c *Conn) dispatchAsync(msg *proto.Message) {
	switch {
	case msg.Event != nil:
		c.events = append(c.events, eventFromWire(msg.Event))
	case msg.Broadcast != nil:
		c.deliverBroadcast(msg.Broadcast)
	case msg.Error != nil:
		if proto.IsGoodbye(msg.Error.Code) {
			// A connection-scoped goodbye, not a per-request failure: the
			// server is about to close the transport. Remember why, so the
			// error the next operation hits is typed (ServerClosedError) —
			// and, for a Redirect, so the reconnect machinery knows the
			// close is an invitation to redial, not an eviction.
			c.closeNotice = msg.Error.Code
			return
		}
		pe := protoErrFromWire(msg.Error)
		if c.errHandler != nil {
			// The handler runs with the connection lock held; it must not
			// call back into the Conn (as in Xlib).
			c.errHandler(c, pe)
		} else {
			fmt.Fprintf(os.Stderr, "%v\n", pe)
		}
	case msg.Reply != nil:
		// A reply nobody is waiting for indicates a library bug or a
		// confused server; drop it loudly.
		fmt.Fprintf(os.Stderr, "af: unexpected reply (seq %d)\n", msg.Reply.Seq)
	}
}

func eventFromWire(ev *proto.Event) *Event {
	return &Event{
		Code:     ev.Code,
		Detail:   ev.Detail,
		Device:   int(ev.Device),
		Time:     ATime(ev.Time),
		HostSec:  ev.HostSec,
		HostNsec: ev.HostNsec,
		Value:    ev.Value,
	}
}

func protoErrFromWire(e *proto.ErrorMsg) *ProtoError {
	return &ProtoError{Code: e.Code, Seq: e.Seq, BadValue: e.BadValue, MajorOp: e.MajorOp}
}

// roundTrip finishes a request that draws a reply, given what the
// proto.Append* call that buffered it returned: it counts the request,
// flushes and waits for the reply. The post-request hooks do not run.
func (c *Conn) roundTrip(err error) (*proto.Reply, error) {
	if err != nil {
		return nil, err
	}
	c.sentSeq++
	return c.awaitReply(c.sentSeq)
}

// awaitReply flushes and reads until the reply (or error) for the request
// with the given sequence number arrives.
func (c *Conn) awaitReply(seq uint16) (*proto.Reply, error) {
	return c.awaitReplyDirect(seq, nil)
}

// awaitReplyDirect is awaitReply with a zero-copy destination: when dst is
// non-nil, the awaited reply's sample payload is read from the socket
// straight into dst (the returned Reply.Extra aliases dst) instead of
// passing through the connection's scratch message. Other messages
// arriving first — events, errors, replies to earlier requests — take the
// ordinary path and leave dst untouched.
func (c *Conn) awaitReplyDirect(seq uint16, dst []byte) (*proto.Reply, error) {
	if err := c.flushLocked(); err != nil {
		return nil, err
	}
	for {
		if c.ioErr != nil {
			return nil, c.ioErr
		}
		if err := proto.ReadMessageDirect(c.br, c.order, &c.rmsg, seq, dst); err != nil {
			return nil, c.ioError(err)
		}
		msg := &c.rmsg
		if msg.Reply != nil && msg.Reply.Seq == seq {
			return msg.Reply, nil
		}
		if msg.Error != nil && msg.Error.Seq == seq && !proto.IsGoodbye(msg.Error.Code) {
			return nil, protoErrFromWire(msg.Error)
		}
		// Overload/Drain/Redirect goodbyes are connection-scoped even when
		// their sequence number matches the awaited request; dispatchAsync
		// records them and the loop runs on to the transport close that
		// follows.
		c.dispatchAsync(msg)
	}
}

// writeVectored ships the queued request bytes plus caller-owned sample
// slices in one vectored write (writev on TCP and Unix sockets), then
// resets the request buffer. Large play payloads go to the kernel
// straight from the caller's slice; they are never copied into the
// library's buffer. The vector is consumed by the write.
func (c *Conn) writeVectored(vec [][]byte) error {
	if c.ioErr != nil {
		return c.ioErr
	}
	if c.closed {
		return errClosed
	}
	// WriteTo consumes the view (advancing and dropping entries), so hand
	// it a throwaway alias of vec; the backing list stays reusable.
	c.wvec = vec
	_, err := c.wvec.WriteTo(c.conn)
	c.wvec = nil
	c.w.Reset()
	if err != nil {
		return c.ioError(err)
	}
	return nil
}

// syncLocked performs a round-trip no-op (AFSync): it flushes the output
// buffer and waits for the server to process everything sent so far,
// surfacing any queued asynchronous errors along the way.
func (c *Conn) syncLocked() error {
	_, err := c.roundTrip(proto.AppendEmptyReq(&c.w, proto.OpSyncConnection, 0))
	return err
}

// Sync flushes the request queue and waits until the server has processed
// every request (AFSync / AFSynchronize's underlying call).
func (c *Conn) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncLocked()
}

// NoOp sends a non-blocking NoOperation request (AFNoOp).
func (c *Conn) NoOp() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.oneWay(proto.AppendEmptyReq(&c.w, proto.OpNoOperation, 0))
}
