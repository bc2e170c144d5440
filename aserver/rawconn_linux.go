package aserver

import (
	"syscall"
	"unsafe"
)

// iovecs is the inline drain's scatter list, kept in the client.
type iovecs [maxWriteVec]syscall.Iovec

// bindRaw takes the conn's RawConn, if it has one, and binds the reader's
// two callbacks on it; off Linux raw stays nil (rawconn_other.go).
func (c *client) bindRaw() {
	if sc, ok := c.conn.(syscall.Conn); ok {
		c.raw, _ = sc.SyscallConn()
		c.rawWrite, c.rawRead = c.writeOnce, c.readOnce
	}
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
		n, err := syscall.Read(int(fd), (*in.buf)[in.w:])
		if err == syscall.EINTR {
			continue
		}
		if n > 0 {
			in.w += n
			if borrowed {
				c.s.sm.frameBytes.Add(int64(len(*in.buf)))
			}
			return true
		}
		if borrowed {
			putBytes(in.buf)
			in.buf = nil
		}
		in.eof = err != syscall.EAGAIN // 0 bytes is EOF
		return in.eof
	}
}

// writeOnce is the client's syscall.RawConn.Write callback: one writev(2)
// attempt on c.vec, result in c.wn. It always reports done, so RawConn
// never waits for writability: EAGAIN, a short count or an error leaves
// wn short of the vector, and the writer takes over. Caller holds c.wmu.
func (c *client) writeOnce(fd uintptr) bool {
	iov := c.iov[:len(c.vec)]
	for i, b := range c.vec {
		iov[i].Base = unsafe.SliceData(b)
		iov[i].SetLen(len(b))
	}
	n, _, errno := syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)))
	if errno == 0 {
		c.wn = int(n)
	}
	return true
}
