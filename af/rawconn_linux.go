package af

import (
	"io"
	"net"
	"os"
	"syscall"
	"unsafe"
)

// bindRaw takes the transport's RawConn when it is a TCP or Unix socket
// and binds the read callback on it; any other transport (DialPipe, a
// wrapper, whatever NewConn was given) leaves raw nil, and so does every
// platform but Linux (rawconn_other.go).
func (c *Conn) bindRaw() {
	c.raw = nil
	switch nc := c.conn.(type) {
	case *net.TCPConn:
		c.raw, _ = nc.SyscallConn()
	case *net.UnixConn:
		c.raw, _ = nc.SyscallConn()
	}
	c.rawRead = c.readOnce
}

// iovecs is the scatter list of the exchange's raw writev, kept in the
// Conn; a play vector longer than it sends the rest by the blocking write.
type iovecs [16]syscall.Iovec

// readOnce is the Conn's syscall.RawConn.Read callback. While c.tx holds
// buffered requests — the first call of an exchange — it ships them
// (writeRaw) and then reports not done, and RawConn waits for the reply's
// readiness with no read; a Conn that has subscribed on this socket
// (c.pushed) reads first anyway, since pushed chunks may fill the socket
// ahead of the reply. A failed write reports done with the error in
// c.txErr. Every other call is one read(2) behind the ingress tail,
// borrowing a buffer if the Conn holds none and giving it back if the read
// finds nothing: EAGAIN waits, or, in a poll (c.probing), reports done; 0
// bytes is EOF.
//
// Both calls are raw (syscall.RawSyscall), skipping the runtime's
// entersyscall/exitsyscall: the socket is non-blocking, so neither can
// block, and the read lock RawConn.Read holds keeps fd from being closed
// and reused under them.
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
	in := &c.in
	borrowed := in.buf == nil
	if borrowed {
		in.buf = getIngress(ingressBytes)
	}
	for {
		b := (*in.buf)[in.w:]
		n, _, errno := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(len(b)))
		if errno == syscall.EINTR {
			continue
		}
		if errno == 0 && n > 0 {
			in.w += int(n)
			return true
		}
		if borrowed {
			in.release()
		}
		switch errno {
		case syscall.EAGAIN:
			return c.probing
		case 0:
			in.err = io.EOF
		default:
			in.err = os.NewSyscallError("read", errno)
		}
		return true
	}
}

// writeRaw is the exchange's write: one write(2) of w.Buf, or one
// writev(2) of a play vector, straight on fd. What the kernel does not
// take — EAGAIN, a short count, slices past the scatter list — the
// blocking write (write) finishes, under the socket's write lock, which is
// not the read lock RawConn.Read holds; an error is left for it to report.
func (c *Conn) writeRaw(fd uintptr, vec [][]byte) error {
	var n uintptr
	var errno syscall.Errno
	if len(vec) == 1 {
		n, _, errno = syscall.RawSyscall(syscall.SYS_WRITE, fd, uintptr(unsafe.Pointer(unsafe.SliceData(vec[0]))), uintptr(len(vec[0])))
	} else {
		iov := c.iov[:min(len(vec), len(c.iov))]
		for i := range iov {
			iov[i].Base = unsafe.SliceData(vec[i])
			iov[i].SetLen(len(vec[i]))
		}
		n, _, errno = syscall.RawSyscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)))
	}
	if errno != 0 {
		n = 0
	}
	for len(vec) > 0 && int(n) >= len(vec[0]) {
		n -= uintptr(len(vec[0]))
		vec = vec[1:]
	}
	if len(vec) == 0 {
		return nil
	}
	vec[0] = vec[0][n:]
	return c.write(vec)
}
