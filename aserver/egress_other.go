//go:build !linux

package aserver

// iovecs is empty where the inline drain has no system call to feed.
type iovecs struct{}

// writeOnce reports "would block" (nothing written) on platforms without
// the non-blocking vectored write: every drain takes the queued path
// through client.writer, as a transport with no syscall.Conn does.
func (c *client) writeOnce(uintptr) bool { return true }
