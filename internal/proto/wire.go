package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrShort reports a truncated or over-read message.
var ErrShort = errors.New("proto: message too short")

// OrderFor returns the binary.ByteOrder for a setup byte-order byte.
func OrderFor(b byte) (binary.ByteOrder, error) {
	switch b {
	case LittleEndianOrder:
		return binary.LittleEndian, nil
	case BigEndianOrder:
		return binary.BigEndian, nil
	}
	return nil, fmt.Errorf("proto: bad byte-order byte %#x", b)
}

// Writer serializes protocol messages in a chosen byte order. The zero
// value with an Order set is ready to use; Buf grows as needed.
type Writer struct {
	Order binary.ByteOrder
	Buf   []byte
}

// Reset truncates the buffer, retaining capacity.
func (w *Writer) Reset() { w.Buf = w.Buf[:0] }

// Len returns the number of bytes written.
func (w *Writer) Len() int { return len(w.Buf) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.Buf = append(w.Buf, v) }

// U16 appends a 16-bit value. The two wire orders are open-coded: passing
// a stack array through the ByteOrder interface forces it to escape, which
// would cost a heap allocation on every append.
func (w *Writer) U16(v uint16) {
	if w.Order == binary.ByteOrder(binary.BigEndian) {
		w.Buf = append(w.Buf, byte(v>>8), byte(v))
	} else {
		w.Buf = append(w.Buf, byte(v), byte(v>>8))
	}
}

// U32 appends a 32-bit value.
func (w *Writer) U32(v uint32) {
	if w.Order == binary.ByteOrder(binary.BigEndian) {
		w.Buf = append(w.Buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	} else {
		w.Buf = append(w.Buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
}

// I16 appends a signed 16-bit value.
func (w *Writer) I16(v int16) { w.U16(uint16(v)) }

// I32 appends a signed 32-bit value.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// Bytes appends raw bytes.
func (w *Writer) Bytes(b []byte) { w.Buf = append(w.Buf, b...) }

// String4 appends a string padded with zero bytes to a 4-byte boundary.
func (w *Writer) String4(s string) {
	w.Buf = append(w.Buf, s...)
	w.Pad()
}

// Pad appends zero bytes to a 4-byte boundary. Most buffers are already
// on one (every request ends with a Pad), and that costs a test.
func (w *Writer) Pad() {
	if n := -len(w.Buf) & 3; n != 0 {
		w.Buf = append(w.Buf, zeros[:n]...)
	}
}

// Skip appends n zero bytes.
func (w *Writer) Skip(n int) {
	for ; n > len(zeros); n -= len(zeros) {
		w.Buf = append(w.Buf, zeros[:]...)
	}
	w.Buf = append(w.Buf, zeros[:n]...)
}

// zeros is the block every run of zero bytes is appended from: pads,
// skipped fields and the blank a fixed-size message's fields are stored
// into (appendFixed).
var zeros [EventBytes]byte

// appendFixed grows b once by a zeroed fixed-size message of n bytes
// (n <= EventBytes) and returns b and the message, ready for its fields.
func appendFixed(b []byte, n int) (grown, msg []byte) {
	off := len(b)
	b = append(b, zeros[:n]...)
	return b, b[off : off+n : off+n]
}

// bigEndian resolves a wire order to the one branch the fixed-size codecs
// take per field: once per message, where a call through the ByteOrder
// interface is paid per field. Anything but big-endian is little-endian,
// as in U16 and U32.
func bigEndian(order binary.ByteOrder) bool { return order == binary.BigEndian }

func put16(b []byte, v uint16, big bool) {
	if big {
		v = bits.ReverseBytes16(v)
	}
	binary.LittleEndian.PutUint16(b, v)
}

func put32(b []byte, v uint32, big bool) {
	if big {
		v = bits.ReverseBytes32(v)
	}
	binary.LittleEndian.PutUint32(b, v)
}

func get16(b []byte, big bool) uint16 {
	v := binary.LittleEndian.Uint16(b)
	if big {
		v = bits.ReverseBytes16(v)
	}
	return v
}

func get32(b []byte, big bool) uint32 {
	v := binary.LittleEndian.Uint32(b)
	if big {
		v = bits.ReverseBytes32(v)
	}
	return v
}

// BeginRequest appends a request header with a length placeholder and
// returns its offset for EndRequest.
func (w *Writer) BeginRequest(op, ext uint8) int {
	off := len(w.Buf)
	w.U8(op)
	w.U8(ext)
	w.U16(0) // patched by EndRequest
	return off
}

// EndRequest pads the request to a 32-bit boundary and patches the header
// length field. It returns an error if the request exceeds the protocol
// maximum.
func (w *Writer) EndRequest(off int) error {
	w.Pad()
	n := len(w.Buf) - off
	if n > MaxRequestBytes {
		return fmt.Errorf("proto: request length %d exceeds maximum %d", n, MaxRequestBytes)
	}
	put16(w.Buf[off+2:off+4], uint16(n/4), bigEndian(w.Order))
	return nil
}

// Reader deserializes protocol messages. Reads past the end set a sticky
// error and return zero values, so parse code can validate once at the end.
type Reader struct {
	Order binary.ByteOrder
	Buf   []byte
	Pos   int
	Err   error
}

// NewReader returns a reader over buf in the given order.
func NewReader(order binary.ByteOrder, buf []byte) *Reader {
	return &Reader{Order: order, Buf: buf}
}

// take consumes n bytes and returns them, aliasing the buffer. Past the
// end, or once the reader has failed, it fails the reader and returns nil
// without moving: every read below states its bounds through it.
func (r *Reader) take(n int) []byte {
	if r.Err != nil || n < 0 || r.Pos+n > len(r.Buf) {
		if r.Err == nil {
			r.Err = ErrShort
		}
		return nil
	}
	b := r.Buf[r.Pos : r.Pos+n]
	r.Pos += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a 16-bit value.
func (r *Reader) U16() uint16 {
	if b := r.take(2); b != nil {
		return get16(b, bigEndian(r.Order))
	}
	return 0
}

// U32 reads a 32-bit value.
func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return get32(b, bigEndian(r.Order))
	}
	return 0
}

// I16 reads a signed 16-bit value.
func (r *Reader) I16() int16 { return int16(r.U16()) }

// I32 reads a signed 32-bit value.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// BytesRef returns n bytes without copying; the slice aliases the buffer.
func (r *Reader) BytesRef(n int) []byte { return r.take(n) }

// String4 reads an n-byte string and skips its padding to a 4-byte
// boundary.
func (r *Reader) String4(n int) string {
	b := r.take(n)
	r.SkipPad()
	return string(b)
}

// Skip advances past n bytes.
func (r *Reader) Skip(n int) { r.take(n) }

// SkipPad advances to the next 4-byte boundary, in one Skip, so a
// reader that has failed stays put.
func (r *Reader) SkipPad() { r.Skip(Pad4(r.Pos) - r.Pos) }
