package proto

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Server-to-client messages.
//
// A reply is a 16-byte header plus padded extra data:
//
//	[1][data][seq:2][extraLen/4:4][time:4][aux:4] extra...
//
// Errors and events are fixed 32-byte messages distinguished by the first
// byte (0 = error, otherwise the event code).

// ReplyHeaderBytes is the fixed size of a reply header.
const ReplyHeaderBytes = 16

// EventBytes is the fixed size of error and event messages. "As in X,
// events have a fixed size."
const EventBytes = 32

// Reply is a generic protocol reply. Time carries the device time for
// audio requests (the paper returns device time from play and record as a
// convenience); Aux carries a second 32-bit datum where a request needs
// one; anything longer travels in Extra.
type Reply struct {
	Data  uint8
	Seq   uint16
	Time  uint32
	Aux   uint32
	Extra []byte
}

// Encode appends the reply to w.
func (p *Reply) Encode(w *Writer) { w.Buf = p.Append(w.Buf, w.Order) }

// Append appends the reply to b: the form for a caller that holds a
// buffer and an order but no Writer (the server's reply stage).
func (p *Reply) Append(b []byte, order binary.ByteOrder) []byte {
	b, hdr := appendFixed(b, ReplyHeaderBytes)
	PutReplyHeader(order, hdr, p, len(p.Extra))
	if len(p.Extra) != 0 {
		b = append(b, p.Extra...)
		b = append(b, zeros[:-len(p.Extra)&3]...)
	}
	return b
}

// PutReplyHeader writes a reply's fixed 16-byte header into hdr for a
// payload of extraLen bytes that the caller marshals (and pads to a
// 32-bit boundary) itself. It is the scatter-gather half of Encode: the
// server's record path converts samples straight into the wire message
// after the header, so the payload never exists anywhere else.
func PutReplyHeader(order binary.ByteOrder, hdr []byte, p *Reply, extraLen int) {
	hdr, big := hdr[:ReplyHeaderBytes], bigEndian(order)
	hdr[0], hdr[1] = MsgReply, p.Data
	put16(hdr[2:], p.Seq, big)
	put32(hdr[4:], uint32(Pad4(extraLen)/4), big)
	put32(hdr[8:], p.Time, big)
	put32(hdr[12:], p.Aux, big)
}

// BroadcastHeaderBytes is the fixed size of a broadcast-data header:
//
//	[7][enc|flags][seq:2][nunits:4][time:4][channel:4] payload...
//
// The payload is exactly nunits 32-bit units of sample data — broadcast
// chunks are always cut on a 32-bit boundary, so unlike replies there is
// no separate byte count and no pad.
const BroadcastHeaderBytes = 16

// BroadcastFlagBigEndian marks big-endian sample data in a broadcast
// header's encoding byte (the low 7 bits carry the encoding).
const BroadcastFlagBigEndian = 0x80

// BroadcastData is one chunk of a subscribed channel's audio, pushed by
// the server without a matching request. Seq is a per-channel chunk
// counter (a gap means the server clamped a backlog); Time is the device
// time of the first sample. Channel identifies the broadcast channel by
// its device index — not by audio context id, because one encoded message
// is shared by every subscriber of the (device, format) group and their
// context ids differ.
type BroadcastData struct {
	Enc           uint8 // sample encoding (sampleconv.Encoding)
	BigEndianData bool
	Seq           uint16
	Time          uint32
	Channel       uint32 // device index of the broadcast channel
	Data          []byte
}

// PutBroadcastHeader writes a broadcast message's fixed 16-byte header
// into hdr for a payload of dataLen bytes (a multiple of 4) that the
// caller marshals in place, mirroring PutReplyHeader: the server encodes
// the chunk straight into the pooled wire message after the header.
func PutBroadcastHeader(order binary.ByteOrder, hdr []byte, b *BroadcastData, dataLen int) {
	hdr, big := hdr[:BroadcastHeaderBytes], bigEndian(order)
	enc := b.Enc
	if b.BigEndianData {
		enc |= BroadcastFlagBigEndian
	}
	hdr[0], hdr[1] = MsgBroadcast, enc
	put16(hdr[2:], b.Seq, big)
	put32(hdr[4:], uint32(dataLen/4), big)
	put32(hdr[8:], b.Time, big)
	put32(hdr[12:], b.Channel, big)
}

// ErrorMsg is a protocol error message.
type ErrorMsg struct {
	Code     uint8
	Seq      uint16
	BadValue uint32
	MajorOp  uint8
}

// Append appends the error to b.
func (e *ErrorMsg) Append(b []byte, order binary.ByteOrder) []byte {
	b, msg := appendFixed(b, EventBytes)
	big := bigEndian(order)
	msg[0], msg[1] = MsgError, e.Code
	put16(msg[2:], e.Seq, big)
	put32(msg[4:], e.BadValue, big)
	msg[8] = e.MajorOp
	return b
}

// Event is a protocol event. Per §5.2, all device events carry both the
// audio device time and the server host's clock time, for synchronizing
// with other media on the same host.
type Event struct {
	Code     uint8 // EventPhoneRing .. EventPropertyChange
	Detail   uint8 // e.g. the DTMF digit, or hook/ring/loop state
	Seq      uint16
	Device   uint32
	Time     uint32 // audio device time
	HostSec  uint32 // server host clock
	HostNsec uint32
	Value    uint32 // e.g. the changed property atom
}

// Append appends the event to b.
func (e *Event) Append(b []byte, order binary.ByteOrder) []byte {
	b, msg := appendFixed(b, EventBytes)
	big := bigEndian(order)
	msg[0], msg[1] = e.Code, e.Detail
	put16(msg[2:], e.Seq, big)
	put32(msg[4:], e.Device, big)
	put32(msg[8:], e.Time, big)
	put32(msg[12:], e.HostSec, big)
	put32(msg[16:], e.HostNsec, big)
	put32(msg[20:], e.Value, big)
	return b
}

// Message is one server-to-client message: exactly one of Reply, Error,
// Event, or Broadcast is non-nil.
type Message struct {
	Reply     *Reply
	Error     *ErrorMsg
	Event     *Event
	Broadcast *BroadcastData

	// Inline storage used by ReadMessageInto so a reused Message reads
	// the steady-state reply stream without allocating. The exported
	// pointers above refer into it (valid until the next ReadMessageInto).
	reply   Reply
	errm    ErrorMsg
	event   Event
	bcast   BroadcastData
	extra   []byte           // reusable Extra/Data backing store
	scratch [EventBytes]byte // fixed-part read buffer (kept here so it never escapes)
}

// MaxReplyExtraBytes bounds the declared extra length of a reply the
// client library will accept: comfortably larger than any legitimate
// reply (a record payload tops out at MaxRequestBytes), small enough
// that a corrupt or hostile length field cannot force an absurd
// allocation.
const MaxReplyExtraBytes = 1 << 24

// ReadMessageInto reads the next server-to-client message into m, reusing
// m's inline storage — including the Extra capacity left by a previous
// reply — so a caller that keeps one Message per connection reads the
// reply stream allocation-free. The message's Reply/Error/Event (and any
// Extra bytes) are only valid until the next call with the same m.
func ReadMessageInto(rd io.Reader, order binary.ByteOrder, m *Message) error {
	m.Reply, m.Error, m.Event, m.Broadcast = nil, nil, nil, nil
	// The fixed part is parsed where it lies when rd is a bufio.Reader whose
	// window holds it whole, and from m.scratch otherwise; either way the
	// stream is left at the first byte after it.
	fixed, window := peekFixed(rd)
	if fixed == nil {
		var err error
		if fixed, err = readFixed(rd, m.scratch[:]); err != nil {
			return err
		}
	}
	kind := fixed[0]
	n, err := m.parseFixed(fixed, bigEndian(order))
	if window != nil {
		window.Discard(len(fixed)) //nolint:errcheck — Peek just returned these bytes
	}
	if err != nil {
		return err
	}
	var payload []byte
	if n > 0 {
		payload = m.payload(n)
		if _, err := io.ReadFull(rd, payload); err != nil {
			return err
		}
	}
	m.publish(kind, payload)
	return nil
}

// ParseMessage is ReadMessageInto for a caller that owns its read buffer:
// it parses the message at the head of b into m where it lies and returns
// the bytes it spans. The payload is copied out, so nothing m holds
// aliases b: the payload of a reply whose sequence number is wantSeq into
// extraDst when that is not nil (the returned Reply.Extra aliases it, and
// payload beyond len(extraDst), normally just the 32-bit-boundary pad, is
// dropped), anything else into m's reusable storage. While b holds only a
// prefix of the message, n is 0 and need is what b must grow to for the
// next call to get further: the whole message once its fixed part is in b,
// the fixed part before that.
func ParseMessage(b []byte, order binary.ByteOrder, m *Message, wantSeq uint16, extraDst []byte) (n, need int, err error) {
	m.Reply, m.Error, m.Event, m.Broadcast = nil, nil, nil, nil
	if len(b) < ReplyHeaderBytes { // no message is shorter
		return 0, ReplyHeaderBytes, nil
	}
	kind, fixed := b[0], fixedBytes(b[0])
	if len(b) < fixed {
		return 0, fixed, nil
	}
	size, err := m.parseFixed(b[:fixed], bigEndian(order))
	if err != nil {
		return 0, 0, err
	}
	if n = fixed + size; len(b) < n {
		return 0, n, nil
	}
	var payload []byte
	if size > 0 {
		payload = extraDst
		if kind != MsgReply || extraDst == nil || m.reply.Seq != wantSeq {
			payload = m.payload(size)
		}
		payload = payload[:copy(payload, b[fixed:n])]
	}
	m.publish(kind, payload)
	return n, n, nil
}

// publish points the exported field for kind at m's inline storage, with
// payload as a reply's Extra or a broadcast's Data.
func (m *Message) publish(kind byte, payload []byte) {
	switch kind {
	case MsgReply:
		m.reply.Extra = payload
		m.Reply = &m.reply
	case MsgBroadcast:
		m.bcast.Data = payload
		m.Broadcast = &m.bcast
	case MsgError:
		m.Error = &m.errm
	default:
		m.Event = &m.event
	}
}

// fixedBytes is the size of the fixed part of the message whose first byte
// is kind: a header for replies and broadcast data, the whole message for
// errors and events.
func fixedBytes(kind byte) int {
	if kind == MsgReply || kind == MsgBroadcast {
		return ReplyHeaderBytes
	}
	return EventBytes
}

// peekFixed returns the next message's fixed part in place, unconsumed, in
// the window of the bufio.Reader that rd is, and that reader to discard it
// from; or nil when it is not whole there: rd is some other reader, the
// stream ends or fails first (readFixed then reports how), or the buffer
// is smaller than the message.
func peekFixed(rd io.Reader) ([]byte, *bufio.Reader) {
	br, ok := rd.(*bufio.Reader)
	if !ok {
		return nil, nil
	}
	b, err := br.Peek(ReplyHeaderBytes) // no message is shorter
	if err == nil && fixedBytes(b[0]) != len(b) {
		b, err = br.Peek(fixedBytes(b[0]))
	}
	if err != nil {
		return nil, nil
	}
	return b, br
}

// readFixed reads the next message's fixed part from the stream into
// scratch. A stream that ends on a message boundary is io.EOF; one that
// ends inside the fixed part is io.ErrUnexpectedEOF.
func readFixed(rd io.Reader, scratch []byte) ([]byte, error) {
	b := scratch[:ReplyHeaderBytes]
	if _, err := io.ReadFull(rd, b); err != nil {
		return nil, err
	}
	if n := fixedBytes(b[0]); n != len(b) {
		if _, err := io.ReadFull(rd, scratch[len(b):n]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		b = scratch[:n]
	}
	return b, nil
}

// payloadBytes is the byte size of a payload declared as a count of
// 32-bit words. It refuses one above MaxReplyExtraBytes before the multiply,
// which on a 32-bit platform would wrap a huge count to a small size.
func payloadBytes(words uint32, what string) (int, error) {
	if words > MaxReplyExtraBytes/4 {
		return 0, fmt.Errorf("proto: %s %d exceeds maximum %d", what, uint64(words)*4, MaxReplyExtraBytes)
	}
	return int(words) * 4, nil
}

// parseFixed is the one statement of the server-to-client layouts: it
// decodes a whole fixed part (fixedBytes(b[0]) bytes) into m's inline
// storage for its kind and returns the size of the payload that follows.
func (m *Message) parseFixed(b []byte, big bool) (payload int, err error) {
	switch b[0] {
	case MsgReply:
		m.reply = Reply{
			Data: b[1],
			Seq:  get16(b[2:], big),
			Time: get32(b[8:], big),
			Aux:  get32(b[12:], big),
		}
		payload, err = payloadBytes(get32(b[4:], big), "reply extra length")
	case MsgBroadcast:
		m.bcast = BroadcastData{
			Enc:           b[1] &^ BroadcastFlagBigEndian,
			BigEndianData: b[1]&BroadcastFlagBigEndian != 0,
			Seq:           get16(b[2:], big),
			Time:          get32(b[8:], big),
			Channel:       get32(b[12:], big),
		}
		payload, err = payloadBytes(get32(b[4:], big), "broadcast data length")
	case MsgError:
		m.errm = ErrorMsg{
			Code:     b[1],
			Seq:      get16(b[2:], big),
			BadValue: get32(b[4:], big),
			MajorOp:  b[8],
		}
	default:
		m.event = Event{
			Code:     b[0],
			Detail:   b[1],
			Seq:      get16(b[2:], big),
			Device:   get32(b[4:], big),
			Time:     get32(b[8:], big),
			HostSec:  get32(b[12:], big),
			HostNsec: get32(b[16:], big),
			Value:    get32(b[20:], big),
		}
	}
	return payload, err
}

// payload returns n bytes of m's reusable Extra/Data backing store.
func (m *Message) payload(n int) []byte {
	if cap(m.extra) < n {
		m.extra = make([]byte, n)
	}
	return m.extra[:n]
}
