package proto

import (
	"io"
	"net"
	"os"
	"syscall"
	"unsafe"
)

// RawConn returns the RawConn the wire layer reads and writes a socket
// through: a TCP or Unix socket's. Any other transport (net.Pipe, a
// wrapper) gets nil, and so does every platform but Linux (raw_other.go):
// the caller then uses the blocking net.Conn calls.
func RawConn(nc net.Conn) syscall.RawConn {
	switch nc.(type) {
	case *net.TCPConn, *net.UnixConn:
		rc, _ := nc.(syscall.Conn).SyscallConn()
		return rc
	}
	return nil
}

// The raw calls below are made inside a RawConn callback, and are raw
// (syscall.RawSyscall): the socket is non-blocking, so none can block, and
// the RawConn lock the callback runs under holds the descriptor, so it
// cannot be closed and reused under the call. They skip the runtime's
// entersyscall/exitsyscall, which a call that cannot block does not need.

// ReadRaw is Read on a socket's descriptor: one read(2) behind the tail,
// or given a TCP Inq a recvmsg(2); either sets inq.Empty, given one. n == 0
// with a nil error is EAGAIN, nothing ready yet; io.EOF is the end.
func (b *Buffer) ReadRaw(fd uintptr, inq *Inq) (_ *Buffer, n int, err error) {
	borrowed := b == nil
	if borrowed {
		b = GetBuffer(IngressBytes)
	}
	for {
		p := b.B[b.W:]
		r, errno := uintptr(0), syscall.Errno(0)
		if inq == nil || inq.unix {
			r, _, errno = syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(unsafe.SliceData(p))), uintptr(len(p)))
			if inq != nil {
				inq.Empty = errno == 0 && r > 0 && r < uintptr(len(p))
			}
		} else {
			inq.iov.Base, inq.msg.Iov, inq.msg.Iovlen, inq.msg.Control = unsafe.SliceData(p), &inq.iov, 1, (*byte)(unsafe.Pointer(&inq.cm))
			inq.iov.SetLen(len(p))
			inq.msg.SetControllen(syscall.CmsgLen(4))
			r, _, errno = syscall.RawSyscall(sysRecvmsg, fd, uintptr(unsafe.Pointer(&inq.msg)), 0)
			inq.Empty = errno == 0 && r > 0 && int(inq.msg.Controllen) >= syscall.CmsgLen(4) &&
				inq.cm.Level == syscall.SOL_TCP && inq.cm.Type == tcpInq && inq.inq == 0
		}
		if errno == syscall.EINTR {
			continue
		}
		if errno == 0 && r > 0 {
			b.W += int(r)
			return b, int(r), nil
		}
		if borrowed {
			b.Put()
			b = nil
		}
		switch errno {
		case syscall.EAGAIN:
			return b, 0, nil
		case 0:
			return b, 0, io.EOF
		}
		return b, 0, os.NewSyscallError("read", errno)
	}
}

const tcpInq = 36 // TCP_INQ and TCP_CM_INQ (linux/tcp.h), which package syscall lacks

// Inq is a stream socket's read header (NewInq). Empty says the last read
// took bytes and left none queued, which excuses the next read once a
// whole write has followed (aserver's serving callback). On TCP a
// recvmsg(2) with TCP_INQ on shows it, a FIN counting as queued; a reset
// it misses, and the write fails on one. On a Unix stream socket a read(2)
// short of its buffer shows it; a FIN it misses, but the peer's read of
// what the write sent raises write space, which Go's netpoller harvests
// with the FIN as read readiness.
type Inq struct {
	Empty bool // the last read took bytes and left none queued (a FIN too, on TCP)
	unix  bool // read(2), and a short one is Empty
	msg   syscall.Msghdr
	iov   syscall.Iovec
	cm    syscall.Cmsghdr
	inq   int32 // cm's data, which follows its header unpadded
}

// NewInq returns nc's read header: a TCP socket's with TCP_INQ on, a Unix
// stream socket's for read(2); else nil (unixpacket, TCP refusing TCP_INQ).
func NewInq(nc net.Conn) *Inq {
	switch nc := nc.(type) {
	case *net.UnixConn:
		if a := nc.LocalAddr(); a != nil && a.Network() == "unix" {
			return &Inq{unix: true}
		}
	case *net.TCPConn:
		var err error
		if rc, cerr := nc.SyscallConn(); cerr == nil && rc.Control(func(fd uintptr) { err = syscall.SetsockoptInt(int(fd), syscall.SOL_TCP, tcpInq, 1) }) == nil && err == nil {
			return new(Inq)
		}
	}
	return nil
}

// Iovecs is a raw write's scatter list, kept beside the vector it sends so
// a write allocates nothing.
type Iovecs [64]syscall.Iovec

// Write is one raw write(2) of vec on fd, a writev(2) when it has more
// than one slice, of at most len(iov) slices. It returns the bytes the
// kernel took: 0 on EAGAIN or an error, which the blocking write that
// finishes the rest reports.
func (iov *Iovecs) Write(fd uintptr, vec [][]byte) int {
	var n uintptr
	var errno syscall.Errno
	if len(vec) == 1 {
		n, _, errno = syscall.RawSyscall(syscall.SYS_WRITE, fd, uintptr(unsafe.Pointer(unsafe.SliceData(vec[0]))), uintptr(len(vec[0])))
	} else {
		v := iov[:min(len(vec), len(iov))]
		for i := range v {
			v[i].Base = unsafe.SliceData(vec[i])
			v[i].SetLen(len(vec[i]))
		}
		n, _, errno = syscall.RawSyscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&v[0])), uintptr(len(v)))
	}
	if errno != 0 {
		return 0
	}
	return int(n)
}
