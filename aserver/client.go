package aserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"audiofile/internal/core"
	"audiofile/internal/metrics"
	"audiofile/internal/proto"
	"audiofile/internal/sampleconv"
)

// ac is the server-side audio context (§5.6): the parameters a client
// binds once instead of repeating on every play and record request.
//
// An ac's attributes are written by its connection's reader under ctl
// (CreateAC, ChangeACAttributes) and read by the same goroutine when it
// dispatches a play or record, so they are ordered by program order; a
// scheduler worker resuming a parked request reads them under the engine
// lock while the reader waits on that park. Fields shared with engine
// retries (recording, subscribed, coder state) are only used under the
// owning engine's lock.
type ac struct {
	id       uint32
	dev      *core.Device
	playGain int
	recGain  int
	preempt  bool
	enc      sampleconv.Encoding
	channels int
	// Conversion-module state for compressed contexts (§5.4: conversion
	// modules handle compressed audio data types). ADPCM is stateful, so
	// each direction keeps a coder across requests of the stream, reset
	// when the encoding is set. The play coder decodes into a park's
	// frame, the record coder in place in the reply message.
	playCoder sampleconv.ADPCMCoder
	recCoder  sampleconv.ADPCMCoder
	// recording marks contexts that have recorded at least once; the
	// first record increments the device's RecRefCount so the periodic
	// record update runs (§7.4.1). Guarded by the owning engine's lock.
	recording bool
	// subscribed marks contexts attached to their device's broadcast
	// channel (broadcast.go). Guarded by the owning engine's lock.
	subscribed bool
}

// client is one connection's server-side state.
type client struct {
	s     *Server
	conn  net.Conn
	order binary.ByteOrder

	// seq counts dispatched requests; its low 16 bits are the protocol
	// sequence number. Atomic because events are stamped with it from
	// engine goroutines while the reader advances it.
	seq atomic.Uint32
	// dead marks a client that must receive no further output (eviction,
	// unregister, the writer's goodbye). Checked by every sender.
	dead atomic.Bool

	out    outQueue
	closed chan struct{}

	// writing is set while a writer goroutine runs (startWriter); the one
	// that says goodbye never clears it. runWriter is writer bound once, so
	// a start allocates no closure.
	writing   atomic.Bool
	runWriter func()

	// inRun is set while the reader dispatches a run: a send then only
	// pushes, and the reader drains the queue itself when the run ends.
	inRun atomic.Bool

	// The conn's write side, held under wmu by the reader's non-blocking
	// drain (TryLock) or by the writer. vec (a window on vecArr) and owned
	// are the vector taken from out and not yet settled: what a partial
	// write left is sent by the next holder before anything behind it.
	// raw is the conn's RawConn (proto.RawConn), nil for net.Pipe, netsim
	// or off Linux; rawWrite, rawRead and rawServe are writeOnce, readOnce
	// and serve bound once, wn what writeOnce wrote, iov its scatter list.
	wmu      sync.Mutex
	vecArr   [maxWriteVec][]byte
	vec      [][]byte
	owned    []*wireMsg
	raw      syscall.RawConn
	rawWrite func(fd uintptr) bool
	rawRead  func(fd uintptr) bool
	rawServe func(fd uintptr) bool
	wn       int
	iov      proto.Iovecs

	// The conn's read side, touched only by the reader: in, the ingress
	// buffer, borrowed while request bytes are in flight (in.B[R:W] is
	// read and not yet framed), and lent, its size as counted in
	// frame_bytes_in_flight (hold); eof, the transport has ended or
	// failed, sticky; the run slice frames are framed into (maxRunLen,
	// allocated once); rest, framed requests not yet dispatched, which only
	// a park leaves; await, that park; rawReads, the RawConn.Read calls
	// made; syscalls, the raw reads and writes made inside them, but for
	// staleWakes, the reads that met EAGAIN first thing after a wait
	// (serve); inq, a stream socket's read header (proto.NewInq, else nil);
	// and served, woke, empty and skip (serve).
	in         *proto.Buffer
	lent       int
	eof        bool
	frames     []runFrame
	rest       []runFrame
	await      *parked
	rawReads   int
	syscalls   int
	staleWakes int
	inq        *proto.Inq
	served     bool
	woke       bool
	empty      bool
	skip       bool

	// lastActive is the unix-nano time of the last dispatched request,
	// the idleness key for server-wide shedding.
	lastActive atomic.Int64
	// flow is the slow-consumer eviction policy (see overload.go).
	flow evictPolicy

	// Eviction state. evict() runs once, before removeClient or not at
	// all: it records why (an event in the server's log, and closeReason,
	// classified into a counter by removeClient) and what to tell the
	// client (goodbye, a proto.Err* code the writer sends as its last
	// message), then starts the writer that sends it.
	goodbye     atomic.Uint32
	closeReason atomic.Uint32
	evictOnce   sync.Once

	// acs is written only by this connection's reader, under Server.ctl;
	// the reader reads it bare (hotEngine), anyone else under ctl.
	acs        map[uint32]*ac
	eventMasks map[int]uint32 // guarded by Server.clientMu

	// stage coalesces small replies generated while dispatching a group
	// (stagedReply/stagedError/flushStage). Touched only by the goroutine
	// inside dispatchHotGroup and always flushed before the group's engine
	// lock drops, so it is empty between groups and teardown never finds
	// bytes here.
	stage *wireMsg

	// req is the control request in dispatch (dispatchControl); touched
	// only by the reader, under Server.ctl.
	req ctlReq
}

// newClient builds a connection's server-side state with the server's
// per-client budgets applied. Shared by handleConn and the package's own
// tests and benchmarks, so they exercise the real queue and writer policy.
func newClient(s *Server, conn net.Conn, order binary.ByteOrder) *client {
	c := &client{
		s:          s,
		conn:       conn,
		order:      order,
		out:        outQueue{total: &s.sm.queuedBytes},
		closed:     make(chan struct{}),
		owned:      make([]*wireMsg, 0, maxWriteVec),
		frames:     make([]runFrame, 0, maxRunLen),
		acs:        make(map[uint32]*ac),
		eventMasks: make(map[int]uint32),
	}
	c.vec = c.vecArr[:0]
	c.runWriter = c.writer
	c.req.c, c.req.r.Order = c, order
	if c.raw = proto.RawConn(conn); c.raw != nil {
		c.rawWrite, c.rawRead, c.rawServe = c.writeOnce, c.readOnce, c.serve
		c.inq = proto.NewInq(conn)
	}
	// Field-by-field: evictPolicy holds an atomic and must not be copied.
	c.flow.budget = s.budget.clientQueue
	c.flow.grace = s.budget.evictGrace
	c.lastActive.Store(time.Now().UnixNano())
	return c
}

// evict marks the client for disconnection with a typed protocol error,
// recording the event (why says what the client did). First call wins,
// and none after removeClient; a writer sends the goodbye and closes the
// transport. Callable from any goroutine, never blocks.
func (c *client) evict(reason uint32, code uint8, why string) {
	c.evictOnce.Do(func() {
		c.closeReason.Store(reason)
		c.s.log.Record(closeKinds[reason], fmt.Sprint(c.conn.RemoteAddr()), why)
		c.goodbye.Store(uint32(code))
		// A writer blocked mid-write on a transport that stopped draining
		// must not delay the teardown: expire the in-flight write. The
		// goodbye flush arms its own fresh deadline — after this one, since
		// the writer only says goodbye once it sees dead.
		c.conn.SetWriteDeadline(time.Now()) //nolint:errcheck
		c.dead.Store(true)
		c.startWriter()
	})
}

// setupDeadline bounds the setup handshake: the server reading a client's
// setup request, and the router's unproxied prefix (that read plus the
// backend handshake).
const setupDeadline = 30 * time.Second

// handleConn performs connection setup and runs the reader.
func (s *Server) handleConn(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(setupDeadline))
	setup, order, err := proto.ReadSetupRequest(conn)
	if err != nil {
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})

	// A draining server accepts no new sessions; the listener is already
	// closed, but races (and DialPipe) can still deliver setups here.
	// Version negotiation: the major version must match; minor skew is
	// tolerated (the X convention the protocol setup copies).
	why := ""
	switch {
	case s.draining.Load():
		why = "server draining"
	case setup.Major != proto.ProtocolMajor:
		why = fmt.Sprintf("protocol version mismatch: server %d.%d, client %d.%d",
			proto.ProtocolMajor, proto.ProtocolMinor, setup.Major, setup.Minor)
	case !s.hostAllowed(conn):
		why = "access denied"
	}
	if why != "" {
		s.log.Record(metrics.Refuse, fmt.Sprint(conn.RemoteAddr()), why)
		refuse(conn, order, why)
		conn.Close()
		return
	}

	rep := proto.SetupReply{
		Success: true,
		Major:   proto.ProtocolMajor, Minor: proto.ProtocolMinor,
		Vendor:  s.opts.Vendor,
		Devices: s.descs,
	}
	if err := rep.Send(conn, order); err != nil {
		conn.Close()
		return
	}

	c := newClient(s, conn, order)
	if !s.register(c) {
		conn.Close()
		return
	}
	c.reader()
}

// runFrame is one framed request in an ingress run: the header fields
// and the body, which aliases the ingress buffer until it is framed again.
type runFrame struct {
	op, ext uint8
	body    []byte
}

// maxRunLen bounds how many requests one ingress run carries. The run
// slice is allocated once per connection; with the ingress buffer's size
// the bound caps how long a group can hold an engine lock. It also bounds
// a group's reply stage: at most one staged message per request, each at
// most 32 bytes (an ErrorMsg; a Reply is 16), so 1 KiB.
const maxRunLen = 32

// reader takes what the client sent in one read, frames every whole
// request where it landed (frame) and runs each to completion, in order,
// under the lock its opTable row names (dispatch), before it reads again.
// On a socket all of that happens inside the RawConn.Read that waits for
// the next burst (serve, the serving callback); the loop here takes over
// for what serve leaves to it — a park, the end of the stream, a malformed
// header, a request bigger than the buffer — and for every transport
// without a RawConn (nextRun). It reads one run ahead of a
// blocked (parked) request — the read keeps disconnect detection live; the
// wait before the next dispatch keeps FIFO order.
func (c *client) reader() {
	for !c.dead.Load() {
		if len(c.rest) == 0 && c.await == nil && c.raw != nil {
			c.readWait(c.rawServe)
		}
		if len(c.rest) == 0 {
			if c.rest = c.nextRun(c.frames[:0]); len(c.rest) == 0 {
				break
			}
		}
		if c.await != nil {
			select {
			case <-c.await.done:
			case <-c.closed:
			}
		}
		c.rest, c.await = c.dispatch(c.rest)
		c.endRun(-1)
	}
	if c.await != nil && !c.eof && !c.dead.Load() {
		// A malformed header: the request parked ahead of it is answered
		// first, as it would have been had the two arrived apart.
		select {
		case <-c.await.done:
		case <-c.closed:
		}
	}
	c.in.Put()
	c.hold(nil)
	c.s.ctl.Lock() // unregister
	c.s.removeClient(c)
	c.s.ctl.Unlock()
}

// readWait is one RawConn.Read with callback f, counted in rawReads. An
// error means the conn closed, which ends the stream. It resets readiness,
// so no read made before it may excuse the next one (empty, skip).
func (c *client) readWait(f func(fd uintptr) bool) {
	c.rawReads++
	c.empty, c.skip, c.served = false, false, false
	if c.raw.Read(f) != nil {
		c.eof = true
	}
}

// serve is the reader's syscall.RawConn.Read callback on a socket, the
// serving callback. It frames what the ingress buffer holds (frame, the
// loop nextRun uses), dispatches each run, drains its replies with one
// writev on fd (endRun), and reads again: the speculative read, which must
// meet EAGAIN before the reader waits (skipped after a read that left the
// socket empty, as what comes later raises readiness anew). Then it
// reports not done, and RawConn waits for readability inside the same call,
// with no second readiness reset. Nothing here waits on a park or the
// writer, whose conn.Close waits for the descriptor this call holds: serve
// reports done, leaving the rest to the reader's loop, at a park, at the
// end of the stream or a malformed header, when the client is dead, and at
// a request bigger than the buffer, which the loop grows.
//
// A wait may end on readiness a speculative read has already consumed
// (on Unix, a write-space wake harvested with the next request queued);
// the read that meets EAGAIN then is counted apart, in staleWakes.
func (c *client) serve(fd uintptr) bool {
	c.woke, c.served = c.served, true
	for !c.dead.Load() {
		run, need := c.frame(c.frames[:0])
		if len(run) != 0 {
			c.rest, c.await = c.dispatch(run)
			c.endRun(int(fd))
			if c.await != nil {
				return true
			}
			continue
		}
		if need < 0 || c.eof || need > c.in.Len() {
			return true
		}
		c.hold(c.in.Compact(need))
		if c.skip || !c.readOnce(fd) {
			c.skip = false
			return false
		}
	}
	return true
}

// readOnce is the client's syscall.RawConn.Read callback: one read(2)
// behind what the ingress buffer holds, borrowing a buffer if the reader
// holds none. A borrow that reads nothing goes straight back, uncounted:
// on EAGAIN RawConn waits for readability with no buffer pinned. One that
// reads bytes counts as lent (hold), and is the reader's to return.
func (c *client) readOnce(fd uintptr) bool {
	in, n, err := c.in.ReadRaw(fd, c.inq)
	if n == 0 && err == nil && c.woke {
		c.staleWakes++
	} else {
		c.syscalls++
	}
	c.woke = false
	c.hold(in)
	c.empty = c.inq != nil && c.inq.Empty
	if n == 0 {
		c.eof = err != nil
	}
	return n > 0 || c.eof
}

// writeOnce is the client's syscall.RawConn.Write callback: one raw
// write attempt of c.vec, result in c.wn. It always reports done, so RawConn
// never waits for writability: EAGAIN, a short count or an error leaves
// wn short of the vector, and a writer takes over. Caller holds c.wmu.
func (c *client) writeOnce(fd uintptr) bool {
	c.wn = c.iov.Write(fd, c.vec)
	return true
}

// hold makes b the reader's ingress buffer, moving frame_bytes_in_flight
// by what that lends or gives back. It counts from lent, not from the
// buffer it replaces, which may be back in the pool already.
func (c *client) hold(b *proto.Buffer) {
	if d := b.Len() - c.lent; d != 0 {
		c.s.sm.frameBytes.Add(int64(d))
		c.lent += d
	}
	c.in = b
}

// frame appends to run every whole request at the head of the ingress
// buffer, up to maxRunLen, and consumes them; it is the one framing loop,
// nextRun's and serve's. It stops at a partial tail, reporting the
// request's full size once its header is in (need, else 0), or at a
// malformed header (length under one unit), left unconsumed and reported
// as need -1.
func (c *client) frame(run []runFrame) (_ []runFrame, need int) {
	in := c.in
	for len(run) < maxRunLen {
		b := in.Bytes()
		if len(b) < 4 {
			break
		}
		n := int(c.order.Uint16(b[2:])) * 4
		if n < 4 {
			return run, -1
		}
		if n > len(b) {
			return run, n
		}
		run = append(run, runFrame{b[0], b[1], b[4:n:n]})
		in.R += n
	}
	return run, 0
}

// nextRun frames the next run, reading more only when the buffer holds no
// whole request. The run before it has been dispatched, so its bytes are
// free. An empty run means the connection is finished: the transport
// ended, or a malformed header is at its head.
func (c *client) nextRun(run []runFrame) []runFrame {
	for {
		var need int
		if run, need = c.frame(run); len(run) != 0 || need < 0 || c.eof {
			return run
		}
		c.fill(need)
	}
}

// fill reads once behind the partial tail (proto.Buffer.Compact). On a
// socket the reader waits for readability and borrows inside the read
// callback (readOnce), so an idle socket pins no buffer; any other
// transport holds one, counted, across its blocking conn.Read.
func (c *client) fill(need int) {
	c.hold(c.in.Compact(need))
	if c.raw != nil {
		c.readWait(c.rawRead)
		return
	}
	if c.in == nil {
		c.hold(proto.GetBuffer(proto.IngressBytes))
	}
	var err error
	c.in, _, err = c.in.Read(c.conn)
	c.eof = err != nil
}

// dispatch dispatches a framed run in order until a request parks: each
// control op runs under ctl, and each stretch of hot ops goes to
// dispatchHotGroup, which serves same-engine neighbours under one lock
// acquisition. It returns the frames behind the park and the park; they
// are dispatched once the park resolves, which keeps per-connection FIFO
// order, and nothing here waits for it. A dead client (evicted, or removed
// by Close) has the rest of its run dropped. It opens the reader's
// push-only stretch (inRun): whatever is sent to this client is only
// pushed, and the caller drains it (endRun) before it reads or waits.
func (c *client) dispatch(run []runFrame) ([]runFrame, *parked) {
	if c.dead.Load() {
		return nil, nil
	}
	c.inRun.Store(true)
	for len(run) != 0 && !c.dead.Load() {
		rf := run[0]
		if !opTable[rf.op].hot {
			c.s.ctl.Lock()
			if !c.dead.Load() { // removeClient may have won the lock
				c.s.dispatchControl(c, rf)
			}
			c.s.ctl.Unlock()
			run = run[1:]
			continue
		}
		// The group is placed here — after any control op earlier in the
		// run — so the AC mutations those made are visible to it.
		consumed, p := c.s.dispatchHotGroup(c, run)
		if run = run[consumed:]; p != nil {
			return run, p
		}
	}
	return nil, nil
}

// endRun ends the reader's push-only stretch, if one is open, and drains
// what it queued (drain; fd as there). The flag clears before the drain's
// take: a sender that saw it set pushed before that take (the queue lock
// orders them), and one that pushes later sees it clear and starts a
// writer.
func (c *client) endRun(fd int) {
	if c.inRun.Load() {
		c.inRun.Store(false)
		c.drain(fd)
	}
}

// maxWriteVec bounds how many queued messages one vectored write
// gathers. It caps the pooled buffers a client's write side can hold
// checked out at once, and sits well under the kernel's iovec limit.
const maxWriteVec = 64

// msgOverheadBytes is what one outstanding message adds to the level the
// eviction policy judges, on top of its marshaled bytes: a flood of tiny
// messages (one-word errors, empty replies) weighs on the server through
// its pooled buffers, not its payload. At the default 256 KiB budget,
// 1024 empty messages put a client over budget.
const msgOverheadBytes = 256

// outQueue is a client's egress queue: what senders push and the holder
// of the write lock takes. It has no capacity of its own — what bounds it
// is the eviction policy judging its level. Push and close share the
// lock, so a message is either taken or refused, never stranded, and
// bytes and count are exact at every instant: a message is outstanding
// from push until its vector is settled (or close drops it).
type outQueue struct {
	mu     sync.Mutex
	msgs   []*wireMsg // msgs[head:] are pushed, not yet taken
	head   int
	bytes  int64 // marshaled bytes outstanding
	count  int64 // messages outstanding
	closed bool
	total  *metrics.Gauge // the server's queuedBytes, moved in step with bytes
}

// level is what evictPolicy judges. Caller holds q.mu.
func (q *outQueue) level() int64 { return q.bytes + q.count*msgOverheadBytes }

// push appends m; it reports the level and queue depth after the push,
// or !ok if the queue is closed (m stays the caller's). It starts nobody:
// the caller knows who drains next (client.send). Never blocks.
func (q *outQueue) push(m *wireMsg) (level int64, depth int, ok bool) {
	n := int64(len(m.buf))
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return 0, 0, false
	}
	if q.head > 0 && len(q.msgs) == cap(q.msgs) {
		// Reclaim the taken prefix before growing: a queue that never
		// quite empties still reuses its slice.
		live := copy(q.msgs, q.msgs[q.head:])
		clear(q.msgs[live:])
		q.msgs, q.head = q.msgs[:live], 0
	}
	q.msgs = append(q.msgs, m)
	q.bytes += n
	q.count++
	q.total.Add(n)
	level, depth = q.level(), len(q.msgs)-q.head
	q.mu.Unlock()
	return level, depth, true
}

// take moves queued messages into the write-lock holder's vector, up to
// maxWriteVec. An emptied queue rewinds, so the slice is reused rather
// than reallocated in steady state.
func (q *outQueue) take(vec [][]byte, owned []*wireMsg) ([][]byte, []*wireMsg) {
	q.mu.Lock()
	taken := q.msgs[q.head:min(len(q.msgs), q.head+maxWriteVec-len(owned))]
	for _, m := range taken {
		vec = append(vec, m.buf)
		owned = append(owned, m)
	}
	clear(taken)
	if q.head += len(taken); q.head == len(q.msgs) {
		q.msgs, q.head = q.msgs[:0], 0
	}
	q.mu.Unlock()
	return vec, owned
}

// settle retires n taken messages of nb bytes once the transport owns
// them, returning the level left.
func (q *outQueue) settle(nb int64, n int) int64 {
	q.mu.Lock()
	q.bytes -= nb
	q.count -= int64(n)
	q.total.Add(-nb)
	level := q.level()
	q.mu.Unlock()
	return level
}

// load reads the outstanding marshaled bytes and the policy level.
func (q *outQueue) load() (bytes, level int64) {
	q.mu.Lock()
	bytes, level = q.bytes, q.level()
	q.mu.Unlock()
	return bytes, level
}

// close refuses every later push and drops what was never taken. The
// writer calls it as it says goodbye, when everything it took has been
// settled.
func (q *outQueue) close() {
	q.mu.Lock()
	q.closed = true
	rest := q.msgs[q.head:]
	q.total.Add(-q.bytes)
	q.msgs, q.head, q.bytes, q.count = nil, 0, 0, 0
	q.mu.Unlock()
	for _, m := range rest {
		m.release()
	}
}

// takeVec refills the settled (empty) vector from the queue and reports
// whether there is anything to write. Caller holds c.wmu.
func (c *client) takeVec() bool {
	if c.vec, c.owned = c.out.take(c.vec, c.owned); len(c.vec) != 0 {
		c.s.sm.writevBatch.Observe(int64(len(c.vec)))
	}
	return len(c.vec) != 0
}

// settleVec retires the taken vector once the transport owns it, or has
// refused it: the books match what was handed over either way. Release,
// not put: a broadcast message is shared with other subscribers' queues
// and only its last releaser returns it to the pool. Caller holds c.wmu.
func (c *client) settleVec() {
	var nb int64
	for _, m := range c.owned {
		nb += int64(len(m.buf))
		m.release()
	}
	c.flow.onDrain(c.out.settle(nb, len(c.owned)))
	c.vec, c.owned = c.vecArr[:0], c.owned[:0]
}

// drain is the reader's own egress: everything queued leaves in one
// non-blocking vectored write on the reader's goroutine, under wmu alone
// and with no deadline armed. It never waits, for the write lock or the
// socket: what would (a busy writer, EAGAIN, a partial write, a conn with
// no RawConn) goes to a writer, the only code that blocks on a socket.
// fd is the socket when the reader is inside its serving callback, which
// holds the descriptor, and the write is made on it directly (writeOnce);
// elsewhere fd is -1 and the write goes through RawConn.Write. A whole
// write on fd after a read that left the socket empty sets skip (proto.Inq
// says why that shows what the read could not: a reset, or a Unix FIN).
func (c *client) drain(fd int) {
	if c.wmu.TryLock() {
		for len(c.vec) == 0 { // else an unfinished vector awaits the writer
			if !c.takeVec() {
				c.wmu.Unlock()
				return
			}
			c.wn = 0
			if fd >= 0 {
				c.syscalls++
				c.rawWrite(uintptr(fd))
			} else if c.raw == nil || c.raw.Write(c.rawWrite) != nil {
				break // no RawConn; or closed, or evict expired its deadline
			}
			if c.vec = proto.ConsumeVec(c.vec, c.wn); len(c.vec) == 0 {
				c.settleVec()
			}
			c.skip = fd >= 0 && c.empty && len(c.vec) == 0
		}
		c.wmu.Unlock()
	}
	c.s.sm.egressFallbacks.Inc()
	c.startWriter()
}

// goodbyeTimeout bounds the final write of an evicted or drained
// connection: the typed error (and any queued tail) is offered to the
// peer for this long, then the transport closes regardless.
const goodbyeTimeout = 250 * time.Millisecond

// startWriter starts a writer unless one is running. One compare-and-swap
// on writing decides, so a start cannot race an exit: the writer leaves
// only with the flag clear, and a sender that found it set had pushed
// before the writer looked for the last time.
func (c *client) startWriter() {
	if c.writing.CompareAndSwap(false, true) {
		c.s.wg.Add(1)
		go c.runWriter()
	}
}

// writer is the half of a client's egress that may block. It runs only
// while output waits that no reader's run will carry (startWriter), and
// gathers queued messages into one vectored write (writev on TCP and Unix
// sockets), so marshaled bytes go from the pooled message buffers to the
// kernel uncopied; buffers return to the pool once their vector is
// written. It leaves with writing clear once nothing is outstanding on a
// live client, and takes the flag back for what was pushed meanwhile
// unless a sender's start already has.
//
// While the client is over its budget every flush runs under a write
// deadline: a transport that stops draining for longer than the policy
// allows is a missed deadline, which is eviction. Once the client is dead
// the writer says goodbye, closes the queue — so this client's bytes are
// off the books before the reader can see the conn closed and unregister
// — and closes the conn (unblocking the reader). It keeps writing set, so
// no writer starts after it.
func (c *client) writer() {
	defer c.s.wg.Done()
	for !c.dead.Load() && c.flushQueue() {
		c.writing.Store(false)
		if _, level := c.out.load(); level == 0 && !c.dead.Load() {
			return
		}
		if !c.writing.CompareAndSwap(false, true) {
			return
		}
	}
	c.sayGoodbye()
	// The close waits for a reader inside its serving callback, which
	// holds the descriptor; it leaves once it sees the client dead, here
	// too when a failed write, not eviction or removal, ended the writer.
	c.dead.Store(true)
	c.conn.Close()
}

// flush writes the taken vector, blocking as long as the conn's write
// deadline allows, and settles it. Caller holds c.wmu.
func (c *client) flush() error {
	_, err := (*net.Buffers)(&c.vec).WriteTo(c.conn) // consumes c.vec in place
	c.settleVec()
	return err
}

// flushQueue writes what a drain left and then everything queued; false
// means the conn is finished.
func (c *client) flushQueue() bool {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	for len(c.vec) != 0 || c.takeVec() {
		allow, over := c.flow.writeAllowance(time.Now().UnixNano())
		if over {
			c.conn.SetWriteDeadline(time.Now().Add(allow)) //nolint:errcheck
		}
		if err := c.flush(); err != nil {
			// Evicted mid-write (the deadline interrupt) reads as a timeout
			// too; a timeout nobody asked for is a missed deadline.
			var ne net.Error
			if !c.dead.Load() && errors.As(err, &ne) && ne.Timeout() {
				c.evict(closeReasonEvict, proto.ErrOverload, "missed its write deadline")
			}
			return false
		}
		if over {
			c.conn.SetWriteDeadline(time.Time{}) //nolint:errcheck
		}
	}
	return true
}

// sayGoodbye queues the typed close error, if one was recorded, behind
// what is already queued, writes it all best-effort under a short deadline
// (a peer that stopped reading cannot pin us here) and closes the queue,
// dropping what never reached the wire.
func (c *client) sayGoodbye() {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.conn.SetWriteDeadline(time.Now().Add(goodbyeTimeout)) //nolint:errcheck
	if code := uint8(c.goodbye.Load()); code != 0 {
		queued, _ := c.out.load()
		m := getMsg("goodbye")
		e := proto.ErrorMsg{Code: code, Seq: uint16(c.seq.Load()), BadValue: uint32(queued)}
		m.buf = e.Append(m.buf, c.order)
		c.out.push(m) // never refused: only this goroutine closes the queue
	}
	for (len(c.vec) != 0 || c.takeVec()) && c.flush() == nil {
	}
	c.out.close()
}

// send queues a marshaled message; it reports false if the client is
// dead or its queue closed. One reference on msg passes to the queue on
// success and is released on failure — so a broadcast caller that
// retained per-subscriber is square either way. The reader's end-of-run
// drain carries the message if it is mid-run, a writer (started here
// unless one runs) if not. Never blocks; safe from any goroutine.
func (c *client) send(msg *wireMsg) bool {
	var level int64
	var depth int
	ok := !c.dead.Load()
	if ok {
		level, depth, ok = c.out.push(msg)
	}
	if !ok {
		msg.release()
		return false
	}
	c.s.sm.sendQueueDepth.Observe(int64(depth))
	if !c.inRun.Load() {
		c.startWriter()
	}
	if level > c.flow.budget {
		c.overBudget(level, time.Now().UnixNano())
	}
	return true
}

// overBudget runs the slow-client policy on an over-budget queue level:
// the send edge and the sweep both judge through here. Out of line so
// the common under-budget send never reads the clock.
func (c *client) overBudget(level, now int64) {
	if c.flow.onQueue(level, now) == flowEvict {
		c.evict(closeReasonEvict, proto.ErrOverload, "over its send budget past its allowance")
	}
}

// newRecordReplyMsg checks out a wire message for a record reply with
// room for n payload bytes and returns the message and its payload
// region. The record path hands the payload region to the device, which
// converts samples from the record ring straight into it (under the
// owning engine's lock), then seals the message with finishRecordReply.
func newRecordReplyMsg(n int) (m *wireMsg, payload []byte) {
	m = getMsg("record-reply")
	buf := msgBytes(m, proto.ReplyHeaderBytes+proto.Pad4(n))
	return m, buf[proto.ReplyHeaderBytes : proto.ReplyHeaderBytes+n]
}

// finishRecordReply seals and queues a record reply whose first n payload
// bytes the device has already converted in place: byte-swap for
// opposite-order sample data, truncate to the delivered length, zero the
// pad, stamp the header. The sample data is never staged anywhere but
// the wire message itself.
func finishRecordReply(c *client, a *ac, m *wireMsg, n int, now uint32, flags uint8, seq uint16) {
	buf := m.buf
	if flags&proto.SampleFlagBigEndian != 0 {
		sampleconv.SwapBytes(a.enc, buf[proto.ReplyHeaderBytes:proto.ReplyHeaderBytes+n])
	}
	total := proto.ReplyHeaderBytes + proto.Pad4(n)
	for i := proto.ReplyHeaderBytes + n; i < total; i++ {
		buf[i] = 0
	}
	m.buf = buf[:total]
	proto.PutReplyHeader(c.order, buf, &proto.Reply{Seq: seq, Time: now, Aux: uint32(n)}, n)
	// Record egress is counted here, the seal point every record reply
	// passes through (first-try, retried, and compressed paths alike).
	c.s.engineByDev[a.dev.Index].m.recChunk.Observe(int64(n))
	c.send(m)
}

// appendReply marshals a reply for the request carrying seq onto m.
func (c *client) appendReply(m *wireMsg, p *proto.Reply, seq uint16) {
	p.Seq = seq
	m.buf = p.Append(m.buf, c.order)
}

// appendError marshals a protocol error for the request carrying seq
// onto m.
func (c *client) appendError(m *wireMsg, code uint8, badValue uint32, op uint8, seq uint16) {
	c.s.sm.clientErrors.Inc()
	e := proto.ErrorMsg{Code: code, Seq: seq, BadValue: badValue, MajorOp: op}
	m.buf = e.Append(m.buf, c.order)
}

// sendReply queues a reply as its own message.
func (c *client) sendReply(p *proto.Reply, seq uint16) {
	m := getMsg("reply")
	c.appendReply(m, p, seq)
	c.send(m)
}

// sendError queues a protocol error as its own message.
func (c *client) sendError(code uint8, badValue uint32, op uint8, seq uint16) {
	m := getMsg("error")
	c.appendError(m, code, badValue, op, seq)
	c.send(m)
}

// stagedReply appends a reply to the group's staging message instead;
// flushStage hands the whole batch to the writer as one message. Only
// fixed-header replies come through here — anything carrying Extra uses
// sendReply (after a flush, to keep reply order).
func (c *client) stagedReply(p *proto.Reply, seq uint16) {
	c.appendReply(c.stageMsg(), p, seq)
}

// stagedError appends a protocol error to the group's staging message.
func (c *client) stagedError(code uint8, badValue uint32, op uint8, seq uint16) {
	c.appendError(c.stageMsg(), code, badValue, op, seq)
}

// stageMsg returns the message to stage into, checking one out lazily so
// a group whose replies all go direct (record replies, suppressed play
// acks) costs nothing here. The group bounds its size (maxRunLen).
func (c *client) stageMsg() *wireMsg {
	if c.stage == nil {
		c.stage = getMsg("staged")
	}
	return c.stage
}

// flushStage queues the staged replies as one message: one pooled
// buffer and one writev iovec for the whole group; the reader's
// end-of-run drain writes it.
// It goes through the ordinary send path, so the byte budget and
// eviction accounting see staged bytes exactly like any other reply.
func (c *client) flushStage() {
	m := c.stage
	if m == nil {
		return
	}
	c.stage = nil
	if len(m.buf) == 0 {
		m.release()
		return
	}
	c.s.sm.stagedBytes.Add(uint64(len(m.buf)))
	c.s.sm.stagedFlushes.Inc()
	c.send(m)
}

// sendEvent marshals and queues an event, stamped with the sequence
// number of the client's most recently dispatched request.
func (c *client) sendEvent(ev *proto.Event) {
	ev.Seq = uint16(c.seq.Load())
	m := getMsg("event")
	m.buf = ev.Append(m.buf, c.order)
	c.send(m)
}
