package af

import (
	"errors"
	"fmt"
	"io"
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
	return c.send()
}

// Flush sends all buffered requests to the server.
func (c *Conn) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked()
}

// pending returns the buffered requests as the vector that ships them:
// the play vector built over w.Buf (AC.playVectored) when there is one,
// else w.Buf alone; nil when nothing is buffered.
func (c *Conn) pending() [][]byte {
	if len(c.pvec) != 0 {
		return c.pvec
	}
	if len(c.w.Buf) == 0 {
		return nil
	}
	c.one[0] = c.w.Buf
	return c.one[:]
}

// resetOutput empties the request buffer once its bytes have gone.
func (c *Conn) resetOutput() {
	c.w.Reset()
	c.pvec = c.pvec[:0]
}

// send writes the buffered requests with the blocking write.
func (c *Conn) send() error {
	vec := c.pending()
	if vec == nil {
		return nil
	}
	err := c.write(vec)
	c.resetOutput()
	if err != nil {
		return c.ioError(err)
	}
	return nil
}

// write ships vec with the blocking write: w.Buf alone as one write, a
// play vector as one writev on TCP and Unix sockets (one write per slice
// elsewhere). The runtime finishes a write the kernel takes in part.
func (c *Conn) write(vec [][]byte) error {
	if len(vec) == 1 {
		_, err := c.conn.Write(vec[0])
		return err
	}
	// WriteTo consumes the view it is handed; c.wvec lives on the Conn so
	// taking its address does not allocate per write.
	c.wvec = vec
	_, err := c.wvec.WriteTo(c.conn)
	c.wvec = nil
	return err
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

// nextMessage parses the next server message out of the ingress into
// c.rmsg, reading when no whole one is there (fill). seq and dst are
// proto.ParseMessage's: the payload of the reply to seq lands in dst.
func (c *Conn) nextMessage(seq uint16, dst []byte) (*proto.Message, error) {
	if c.ioErr != nil {
		return nil, c.ioErr
	}
	if c.closed {
		return nil, errClosed
	}
	in := &c.in
	for {
		n, need, err := proto.ParseMessage(in.buf.Bytes(), c.order, &c.rmsg, seq, dst)
		if err != nil {
			return nil, c.ioError(err)
		}
		if n > 0 {
			in.buf = in.buf.Consume(n)
			return &c.rmsg, nil
		}
		if err := in.err; err != nil {
			if err == io.EOF && in.buf != nil {
				err = io.ErrUnexpectedEOF // the stream ended inside a message
			}
			return nil, c.ioError(err)
		}
		if err := c.fill(need); err != nil {
			return nil, c.ioError(err)
		}
	}
}

// fill reads once behind the unparsed tail, which it first moves to the
// front of the buffer (proto.Buffer.Compact). The buffered requests go out
// first: on a socket inside the read, as the exchange (exchange);
// elsewhere by the blocking write, and the buffer is then borrowed across
// a blocking conn.Read.
func (c *Conn) fill(need int) error {
	in := &c.in
	in.buf = in.buf.Compact(need)
	if c.raw != nil {
		return c.exchange()
	}
	if err := c.send(); err != nil {
		return err
	}
	in.buf, _, in.err = in.buf.Read(c.conn)
	return nil
}

// exchange is fill on a socket: one syscall.RawConn.Read, whose callback
// (readOnce) ships the buffered requests in its first call and reads in
// the calls after. Its first call returns without a read, so RawConn waits
// for the reply's readiness rather than trying a read that could only find
// EAGAIN; that is sound because the reply to a request written after
// RawConn.Read reset readiness cannot have arrived before it (DESIGN.md,
// "The client's reply wait").
func (c *Conn) exchange() error {
	c.tx, c.txErr = c.pending(), nil
	err := c.raw.Read(c.rawRead)
	c.tx = nil
	c.resetOutput()
	if c.txErr != nil {
		return c.txErr
	}
	return err
}

// bindRaw takes the transport's RawConn (proto.RawConn: a TCP or Unix
// socket, on Linux) and binds the read callback on it, so a call passes
// no fresh closure.
func (c *Conn) bindRaw() {
	c.raw = proto.RawConn(c.conn)
	c.rawRead = c.readOnce
}

// readOnce is the Conn's syscall.RawConn.Read callback. While c.tx holds
// buffered requests — the first call of an exchange — it ships them
// (writeRaw) and then reports not done, and RawConn waits for the reply's
// readiness with no read; a Conn that has subscribed on this socket
// (c.pushed) reads first anyway, since pushed chunks may fill the socket
// ahead of the reply. A failed write reports done with the error in
// c.txErr. Every other call is one raw read behind the ingress tail
// (proto.Buffer.ReadRaw): EAGAIN waits, or, in a poll (c.probing), reports
// done; the end of the stream or a failure is kept in c.in.err.
func (c *Conn) readOnce(fd uintptr) bool {
	if c.tx != nil {
		c.txErr = c.writeRaw(fd, c.tx)
		c.tx = nil
		if c.txErr != nil {
			return true
		}
		if !c.pushed {
			return false
		}
	}
	var n int
	c.in.buf, n, c.in.err = c.in.buf.ReadRaw(fd, nil)
	return n > 0 || c.in.err != nil || c.probing
}

// writeRaw is the exchange's write: one raw write of w.Buf, or writev of a
// play vector, on fd (proto.Iovecs.Write). What the kernel does not take —
// EAGAIN, a short count, slices past the scatter list — the blocking write
// (write) finishes, under the socket's write lock, which is not the read
// lock RawConn.Read holds; an error is left for it to report.
func (c *Conn) writeRaw(fd uintptr, vec [][]byte) error {
	if vec = proto.ConsumeVec(vec, c.iov.Write(fd, vec)); len(vec) == 0 {
		return nil
	}
	return c.write(vec)
}

// waitFor is the blocking event loop: until done reports true it flushes
// the buffered requests, reads the next server message and dispatches
// it (dispatchAsync), so done sees each event or chunk as it is queued.
func (c *Conn) waitFor(done func() bool) error {
	for !done() {
		if err := c.flushLocked(); err != nil {
			return err
		}
		msg, err := c.nextMessage(0, nil)
		if err != nil {
			return err
		}
		c.dispatchAsync(msg)
	}
	return nil
}

// pollFor is waitFor without the wait: it dispatches only messages
// already readable, without waiting for the first byte of one, until done
// reports true or none is left. Polling is a flush boundary, like awaiting
// a reply: any write-combined requests still in the output buffer go to
// the wire first (in one write), so a client can never poll for the
// effect of a request it has not yet sent.
func (c *Conn) pollFor(done func() bool) error {
	if err := c.flushLocked(); err != nil {
		return err
	}
	for !done() {
		if c.in.buf == nil && c.in.err == nil {
			if got, err := c.probe(); !got || err != nil {
				return err
			}
		}
		msg, err := c.nextMessage(0, nil)
		if err != nil {
			return err
		}
		c.dispatchAsync(msg)
	}
	return nil
}

// probe reads once without waiting and reports whether that found bytes
// or the transport's end. On a socket it is one non-blocking read inside
// RawConn.Read (readOnce reports EAGAIN as done while c.probing); a
// transport without a RawConn reads under a 1 ms deadline.
func (c *Conn) probe() (bool, error) {
	in := &c.in
	if c.raw != nil {
		c.probing = true
		err := c.raw.Read(c.rawRead)
		c.probing = false
		if err != nil {
			return false, c.ioError(err)
		}
		return in.buf != nil || in.err != nil, nil
	}
	if err := c.conn.SetReadDeadline(time.Now().Add(time.Millisecond)); err != nil {
		// A transport that cannot arm a deadline would turn the probe
		// below into a blocking read; fail the poll instead.
		return false, c.ioError(err)
	}
	var err error
	in.buf, _, err = in.buf.Read(c.conn)
	// Clear the deadline before anything else: a connection left with the
	// stale 1ms deadline would spuriously time out every later blocking
	// read. A failure here poisons the connection the same way.
	clearErr := c.conn.SetReadDeadline(time.Time{})
	var ne net.Error
	if err != nil && !(errors.As(err, &ne) && ne.Timeout()) {
		in.err = err
	}
	if clearErr != nil {
		return false, c.ioError(clearErr)
	}
	return in.buf != nil || in.err != nil, nil
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
			// error the next operation hits is typed (ServerClosedError).
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
	return c.awaitReply(c.sentSeq, nil)
}

// awaitReply reads until the reply (or error) for the request with the
// given sequence number arrives. When dst is non-nil, the awaited reply's
// samples are copied from the read buffer straight into dst (the returned
// Reply.Extra aliases dst) instead of into the connection's scratch
// message. Other messages arriving first — events, errors, replies to
// earlier requests — take the ordinary path and leave dst untouched. The
// awaited request is either already sent or among the buffered requests,
// which go out with the first read that waits (fill): every caller
// buffers its request just before it awaits the reply.
func (c *Conn) awaitReply(seq uint16, dst []byte) (*proto.Reply, error) {
	for {
		msg, err := c.nextMessage(seq, dst)
		if err != nil {
			return nil, err
		}
		if msg.Reply != nil && msg.Reply.Seq == seq {
			return msg.Reply, nil
		}
		if msg.Error != nil && msg.Error.Seq == seq && !proto.IsGoodbye(msg.Error.Code) {
			return nil, protoErrFromWire(msg.Error)
		}
		// Overload/Drain goodbyes are connection-scoped even when
		// their sequence number matches the awaited request; dispatchAsync
		// records them and the loop runs on to the transport close that
		// follows.
		c.dispatchAsync(msg)
	}
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
