//go:build !linux

package proto

import (
	"net"
	"syscall"
)

// RawConn is nil off Linux: both ends read with a blocking conn.Read
// holding their buffer and write with the blocking write, as on a
// transport with no RawConn.
func RawConn(net.Conn) syscall.RawConn { return nil }

// ReadRaw is never called where RawConn is nil.
func (b *Buffer) ReadRaw(uintptr, *Inq) (*Buffer, int, error) { panic("proto: no raw read off Linux") }

// Inq and NewInq: no raw read is made here, so none shows a socket empty.
type Inq struct{ Empty bool }

func NewInq(net.Conn) *Inq { return nil }

// Iovecs is empty where there is no raw write to feed.
type Iovecs struct{}

// Write is never called where RawConn is nil.
func (*Iovecs) Write(uintptr, [][]byte) int { panic("proto: no raw write off Linux") }
