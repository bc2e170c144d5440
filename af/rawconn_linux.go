package af

import (
	"io"
	"net"
	"os"
	"syscall"
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

// readOnce is the Conn's syscall.RawConn.Read callback. While c.tx holds
// buffered requests — the first call of an exchange — it ships them with
// the blocking write (write): one write, or one writev for a play vector,
// that the runtime finishes through EAGAIN and short writes under the
// socket's write lock, which is not the read lock RawConn.Read holds. It
// then reports not done, and RawConn waits for the reply's readiness with
// no read; a Conn that has subscribed on this socket (c.pushed) reads
// first anyway, since pushed chunks may fill the socket ahead of the
// reply. A failed write reports done with the error in c.txErr. Every
// other call is one read(2) behind the ingress tail, borrowing a buffer if
// the Conn holds none and giving it back if the read finds nothing: EAGAIN
// waits, or, in a poll (c.probing), reports done; 0 bytes is EOF.
func (c *Conn) readOnce(fd uintptr) bool {
	if c.tx != nil {
		c.txErr = c.write(c.tx)
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
		n, err := syscall.Read(int(fd), (*in.buf)[in.w:])
		if err == syscall.EINTR {
			continue
		}
		if n > 0 {
			in.w += n
			return true
		}
		if borrowed {
			in.release()
		}
		switch err {
		case syscall.EAGAIN:
			return c.probing
		case nil:
			in.err = io.EOF
		default:
			in.err = os.NewSyscallError("read", err)
		}
		return true
	}
}
