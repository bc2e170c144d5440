package aserver

import (
	"syscall"
	"unsafe"
)

// iovecs is the inline drain's scatter list, kept in the client.
type iovecs [maxWriteVec]syscall.Iovec

// bindRaw takes the conn's RawConn, if it has one, and binds the reader's
// callbacks on it; off Linux raw stays nil (rawconn_other.go).
func (c *client) bindRaw() {
	if sc, ok := c.conn.(syscall.Conn); ok {
		c.raw, _ = sc.SyscallConn()
		c.rawWrite, c.rawRead, c.rawServe = c.writeOnce, c.readOnce, c.serve
	}
}

// The callbacks' system calls are raw (syscall.RawSyscall): the socket is
// non-blocking, so none can block, and the RawConn lock the callback runs
// under holds the descriptor, so it cannot be closed and reused under the
// call. They skip the runtime's entersyscall/exitsyscall, which a call
// that cannot block does not need. Nothing outside a callback makes one.

// serve is the reader's syscall.RawConn.Read callback on a socket, the
// serving callback. It frames what the ingress buffer holds (frame, the
// loop nextRun uses), dispatches each run, drains its replies with one
// writev on fd (endRun), and reads again: the speculative read, which must
// meet EAGAIN before the reader waits. Then it reports not done, and
// RawConn waits for readability inside the same call, with no second
// readiness reset. Nothing here waits on a park or on the writer, whose
// conn.Close waits for the descriptor this call holds: serve reports done,
// leaving the rest to the reader's loop, at a park, at the end of the
// stream or a malformed header, when the client is dead, and at a request
// bigger than the buffer, which the loop grows.
func (c *client) serve(fd uintptr) bool {
	in := &c.in
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
		if need < 0 || in.eof || need > 0 && need > len(*in.buf) {
			return true
		}
		c.compact(need)
		if !c.readOnce(fd) {
			return false
		}
	}
	return true
}

// readOnce is the client's syscall.RawConn.Read callback: one read(2)
// behind what the ingress buffer holds, borrowing a buffer if the reader
// holds none. A borrow that reads nothing goes straight back, uncounted:
// on EAGAIN RawConn waits for readability with no buffer pinned. One that
// reads bytes counts as lent, and is the reader's to return (putFrame).
func (c *client) readOnce(fd uintptr) bool {
	in := &c.in
	borrowed := in.buf == nil
	if borrowed {
		in.buf = getBytes(ingressBytes)
	}
	for {
		c.syscalls++
		b := (*in.buf)[in.w:]
		n, _, errno := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(len(b)))
		if errno == syscall.EINTR {
			continue
		}
		if errno == 0 && n > 0 {
			in.w += int(n)
			if borrowed {
				c.s.sm.frameBytes.Add(int64(len(*in.buf)))
			}
			return true
		}
		if borrowed {
			putBytes(in.buf)
			in.buf = nil
		}
		in.eof = errno != syscall.EAGAIN // 0 bytes is EOF
		return in.eof
	}
}

// writeOnce is the client's syscall.RawConn.Write callback: one writev(2)
// attempt on c.vec, result in c.wn. It always reports done, so RawConn
// never waits for writability: EAGAIN, a short count or an error leaves
// wn short of the vector, and a writer takes over. Caller holds c.wmu.
func (c *client) writeOnce(fd uintptr) bool {
	iov := c.iov[:len(c.vec)]
	for i, b := range c.vec {
		iov[i].Base = unsafe.SliceData(b)
		iov[i].SetLen(len(b))
	}
	n, _, errno := syscall.RawSyscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)))
	if errno == 0 {
		c.wn = int(n)
	}
	return true
}
