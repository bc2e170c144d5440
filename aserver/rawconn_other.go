//go:build !linux

package aserver

// iovecs is empty where the inline drain has no system call to feed.
type iovecs struct{}

// bindRaw leaves c.raw nil on platforms without the non-blocking read and
// vectored write: the reader blocks in conn.Read holding its buffer and
// every drain hands its queue to a client.writer, as on a transport with
// no syscall.Conn.
func (c *client) bindRaw() {}
