package aserver

import (
	"syscall"
	"unsafe"
)

// iovecs is the inline drain's scatter list, kept in the client.
type iovecs [maxWriteVec]syscall.Iovec

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
