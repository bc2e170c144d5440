package proto

import (
	"io"
	"sync"
)

// The socket half of the wire, shared by the client library (af) and the
// server (aserver): one pool of byte buffers, the read side's borrowed
// buffer, and the raw read and writev of a socket (raw_linux.go).

// IngressBytes sizes a read side's buffer on either end: one read(2) takes
// a whole client burst at the server — a full run of small requests, or
// three 8 KiB play chunks shipped as one writev — and a 24 KiB record's
// three chunk replies at the client. A constant chosen by measurement:
// EXPERIMENTS.md, "One read per burst, any size".
const IngressBytes = 32 << 10

// Buffer is a pooled byte buffer, checked out only while its bytes are in
// use. As a read side's ingress buffer, B[R:W] is read and not yet
// consumed: the buffer is borrowed when bytes arrive and given back once
// none are left, so an idle connection pins none. A nil *Buffer is "none
// borrowed"; the methods that may borrow or give back return the buffer
// the caller holds afterwards.
type Buffer struct {
	B    []byte
	R, W int
}

var bufferPool = sync.Pool{New: func() any { return new(Buffer) }}

// GetBuffer checks out an empty Buffer of n bytes.
func GetBuffer(n int) *Buffer {
	b := bufferPool.Get().(*Buffer)
	if cap(b.B) < n {
		b.B = make([]byte, n)
	}
	b.B, b.R, b.W = b.B[:n], 0, 0
	return b
}

// Put gives b back to the pool; none is a no-op.
func (b *Buffer) Put() {
	if b != nil {
		bufferPool.Put(b)
	}
}

// Len is the buffer's size; 0 for none.
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	return len(b.B)
}

// Bytes returns what is read and not yet consumed; nil for none.
func (b *Buffer) Bytes() []byte {
	if b == nil {
		return nil
	}
	return b.B[b.R:b.W]
}

// Consume drops the n bytes a message spanned, giving the buffer back when
// they were the last.
func (b *Buffer) Consume(n int) *Buffer {
	if b.R += n; b.R == b.W {
		b.Put()
		return nil
	}
	return b
}

// Compact readies b for a read behind its unconsumed tail: it moves the
// tail to the front of the buffer — or of a bigger one, when the message
// (need bytes) exceeds it; with no tail it gives the buffer back, so a
// side that waits pins none.
func (b *Buffer) Compact(need int) *Buffer {
	if b == nil {
		return nil
	}
	tail := b.B[b.R:b.W]
	switch {
	case len(tail) == 0:
		b.Put()
		return nil
	case need > len(b.B):
		grown := GetBuffer(need)
		copy(grown.B, tail)
		b.Put()
		b = grown
	default:
		copy(b.B, tail)
	}
	b.R, b.W = 0, len(tail)
	return b
}

// Read is one r.Read behind the tail, for a transport without a raw read:
// it borrows IngressBytes if b is nil, and a borrow that reads nothing goes
// back.
func (b *Buffer) Read(r io.Reader) (*Buffer, int, error) {
	borrowed := b == nil
	if borrowed {
		b = GetBuffer(IngressBytes)
	}
	n, err := r.Read(b.B[b.W:])
	b.W += n
	if borrowed && n == 0 {
		b.Put()
		b = nil
	}
	return b, n, err
}

// ConsumeVec drops the first n bytes of vec, returning what is left.
func ConsumeVec(vec [][]byte, n int) [][]byte {
	for len(vec) > 0 && n >= len(vec[0]) {
		n -= len(vec[0])
		vec = vec[1:]
	}
	if len(vec) > 0 {
		vec[0] = vec[0][n:]
	}
	return vec
}
