package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
)

// The fixed-size server messages are encoded by storing fields into a
// block grown once, and decoded in place from a bufio window when it holds
// them whole. This file pins both to the plain way of doing it: reference
// encoders that append field by field through the ByteOrder interface, and
// a decoder differential that feeds the same bytes through every path a
// reader can take.

func ref16(b []byte, order binary.ByteOrder, v uint16) []byte {
	var f [2]byte
	order.PutUint16(f[:], v)
	return append(b, f[:]...)
}

func ref32(b []byte, order binary.ByteOrder, v uint32) []byte {
	var f [4]byte
	order.PutUint32(f[:], v)
	return append(b, f[:]...)
}

// refReply, refError and refEvent are the straightforward encoders the
// production ones must match byte for byte.
func refReply(b []byte, order binary.ByteOrder, p *Reply) []byte {
	b = append(b, MsgReply, p.Data)
	b = ref16(b, order, p.Seq)
	b = ref32(b, order, uint32(Pad4(len(p.Extra))/4))
	b = ref32(b, order, p.Time)
	b = ref32(b, order, p.Aux)
	b = append(b, p.Extra...)
	for i := len(p.Extra); i%4 != 0; i++ {
		b = append(b, 0)
	}
	return b
}

func refError(b []byte, order binary.ByteOrder, e *ErrorMsg) []byte {
	b = append(b, MsgError, e.Code)
	b = ref16(b, order, e.Seq)
	b = ref32(b, order, e.BadValue)
	b = append(b, e.MajorOp)
	return append(b, make([]byte, EventBytes-9)...)
}

func refEvent(b []byte, order binary.ByteOrder, e *Event) []byte {
	b = append(b, e.Code, e.Detail)
	b = ref16(b, order, e.Seq)
	for _, v := range []uint32{e.Device, e.Time, e.HostSec, e.HostNsec, e.Value} {
		b = ref32(b, order, v)
	}
	return append(b, make([]byte, EventBytes-24)...)
}

// TestFixedEncodersMatchReference: random values, both orders, appended
// behind a prefix of every alignment, through both entry points (Append
// and Encode) — and onto a buffer with dirty spare capacity, which the
// zero pad bytes must overwrite.
func TestFixedEncodersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 2000; i++ {
		prefix := make([]byte, rng.Intn(8), 256)
		rng.Read(prefix[:cap(prefix)]) // dirty spare capacity
		rep := Reply{Data: uint8(rng.Uint32()), Seq: uint16(rng.Uint32()), Time: rng.Uint32(), Aux: rng.Uint32()}
		if i%2 == 0 {
			rep.Extra = make([]byte, rng.Intn(11))
			rng.Read(rep.Extra)
		}
		em := ErrorMsg{Code: uint8(rng.Uint32()), Seq: uint16(rng.Uint32()), BadValue: rng.Uint32(), MajorOp: uint8(rng.Uint32())}
		ev := Event{Code: uint8(rng.Uint32()), Detail: uint8(rng.Uint32()), Seq: uint16(rng.Uint32()),
			Device: rng.Uint32(), Time: rng.Uint32(), HostSec: rng.Uint32(), HostNsec: rng.Uint32(), Value: rng.Uint32()}
		for _, o := range wireOrders {
			start := func() []byte { return append(make([]byte, 0, cap(prefix)), prefix[:cap(prefix)]...)[:len(prefix)] }
			want := refEvent(refError(refReply(start(), o.order, &rep), o.order, &em), o.order, &ev)
			got := ev.Append(em.Append(rep.Append(start(), o.order), o.order), o.order)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s Append at offset %d:\n got % x\nwant % x", o.name, len(prefix), got, want)
			}
			w := &Writer{Order: o.order, Buf: start()}
			rep.Encode(w)
			w.Buf = ev.Append(em.Append(w.Buf, o.order), o.order)
			if !bytes.Equal(w.Buf, want) {
				t.Fatalf("%s Encode at offset %d:\n got % x\nwant % x", o.name, len(prefix), w.Buf, want)
			}
		}
	}
}

// TestWriterZeroRuns pins Skip, Pad and String4 — which append from the
// shared zero block — against a dirty buffer and runs longer than the
// block.
func TestWriterZeroRuns(t *testing.T) {
	dirty := bytes.Repeat([]byte{0xAA}, 256)
	for n := 0; n <= 3*len(zeros)+1; n++ {
		w := &Writer{Buf: dirty[:1]}
		w.Skip(n)
		if len(w.Buf) != 1+n || !bytes.Equal(w.Buf[1:], make([]byte, n)) {
			t.Fatalf("Skip(%d) wrote % x", n, w.Buf[1:])
		}
	}
	for off := 0; off < 8; off++ {
		w := &Writer{Buf: append([]byte(nil), dirty[:off]...)}
		w.String4("abcde")
		if len(w.Buf)%4 != 0 || !bytes.HasPrefix(w.Buf[off:], []byte("abcde")) ||
			!bytes.Equal(w.Buf[off+5:], make([]byte, len(w.Buf)-off-5)) {
			t.Fatalf("String4 at offset %d wrote % x", off, w.Buf[off:])
		}
		before := len(w.Buf)
		w.Pad()
		if len(w.Buf) != before {
			t.Fatalf("Pad on an aligned buffer appended %d bytes", len(w.Buf)-before)
		}
	}
}

// readerWays are the paths bytes can take into ReadMessageInto: the streaming
// path (any io.Reader), the window path (a bufio.Reader holding the fixed
// part whole), and a bufio.Reader with the smallest buffer there is over a
// source that yields a byte at a time — its window holds a 16-byte header
// only after sixteen fills and never a 32-byte error or event.
var readerWays = []struct {
	name string
	wrap func(src *bytes.Reader, window int) io.Reader
}{
	{"stream", func(src *bytes.Reader, _ int) io.Reader { return src }},
	{"window", func(src *bytes.Reader, window int) io.Reader { return bufio.NewReaderSize(src, window) }},
	{"trickle", func(src *bytes.Reader, _ int) io.Reader { return bufio.NewReaderSize(iotest.OneByteReader(src), 16) }},
}

// decodeStep is what one read or parse of a message did, in comparable
// form.
type decodeStep struct {
	msg      string
	err      string
	consumed int
}

func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "unexpected EOF"
	case errors.Is(err, io.EOF):
		return "EOF"
	}
	return "other: " + err.Error()
}

// describe prints m as ParseMessage delivers it with a destination of
// dstLen bytes for the reply to seq: that reply's Extra cut to dstLen.
func describe(m *Message, seq uint16, dstLen int) string {
	switch {
	case m.Reply != nil:
		r := *m.Reply
		if r.Seq == seq && len(r.Extra) > dstLen {
			r.Extra = r.Extra[:dstLen]
		}
		return fmt.Sprintf("reply %+v", r)
	case m.Error != nil:
		return fmt.Sprintf("error %+v", *m.Error)
	case m.Event != nil:
		return fmt.Sprintf("event %+v", *m.Event)
	case m.Broadcast != nil:
		return fmt.Sprintf("broadcast %+v", *m.Broadcast)
	}
	return "none"
}

// decodeAll reads messages from data one way until an error (or max
// messages) and records each step.
func decodeAll(wrap func(*bytes.Reader, int) io.Reader, window int, data []byte, order binary.ByteOrder, seq uint16, dstLen, max int) []decodeStep {
	src := bytes.NewReader(data)
	rd := wrap(src, window)
	var m Message
	var steps []decodeStep
	for len(steps) < max {
		err := ReadMessageInto(rd, order, &m)
		left := src.Len()
		if br, ok := rd.(*bufio.Reader); ok {
			left += br.Buffered()
		}
		steps = append(steps, decodeStep{describe(&m, seq, dstLen), errClass(err), len(data) - left})
		if err != nil {
			break
		}
	}
	return steps
}

// parseAll decodes data as a caller owning its read buffer does: with
// ParseMessage over the bytes read so far, the reply to seq into a
// destination of dstLen bytes, reading (here: revealing) up to the need it
// reports whenever no whole message is there, and meeting the end of the
// stream as io.EOF between messages and io.ErrUnexpectedEOF inside one.
// Each step must make progress. A failed step consumes nothing.
func parseAll(t *testing.T, data []byte, order binary.ByteOrder, seq uint16, dstLen, max int) []decodeStep {
	t.Helper()
	var m Message
	var steps []decodeStep
	off, avail := 0, 0
	for len(steps) < max {
		dst := make([]byte, dstLen)
		n, need, err := ParseMessage(data[off:off+avail], order, &m, seq, dst)
		if err == nil && n == 0 {
			if off+avail < len(data) {
				if need <= avail {
					t.Fatalf("ParseMessage over %d bytes needs %d: no progress", avail, need)
				}
				avail = min(need, len(data)-off)
				continue
			}
			err = io.EOF
			if avail != 0 {
				err = io.ErrUnexpectedEOF
			}
		}
		off, avail = off+n, avail-n
		steps = append(steps, decodeStep{describe(&m, seq, dstLen), errClass(err), off})
		if err != nil {
			break
		}
	}
	return steps
}

func ended(class string) string {
	if class == "unexpected EOF" {
		return "EOF"
	}
	return class
}

// sameEveryWay requires every path to decode data into the same messages,
// fail with the same class of error and consume the same bytes — in place
// (parseAll), the same messages, the same bytes up to the failure and the
// same failure, where a stream that ends is one class: the streaming
// reader calls a cut right after a header io.EOF.
func sameEveryWay(t *testing.T, window int, data []byte, order binary.ByteOrder, seq uint16, dstLen, max int) []decodeStep {
	t.Helper()
	want := decodeAll(readerWays[0].wrap, window, data, order, seq, dstLen, max)
	for _, way := range readerWays[1:] {
		got := decodeAll(way.wrap, window, data, order, seq, dstLen, max)
		if len(got) != len(want) {
			t.Fatalf("%s read %d messages, stream read %d (input % x)", way.name, len(got), len(want), data)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("message %d, window %d, input % x:\n%8s %+v\n  stream %+v", i, window, data, way.name, got[i], want[i])
			}
		}
	}
	got := parseAll(t, data, order, seq, dstLen, max)
	if len(got) != len(want) {
		t.Fatalf("in place parsed %d messages, stream read %d (input % x)", len(got), len(want), data)
	}
	for i := range want {
		if w := want[i]; got[i].msg != w.msg || ended(got[i].err) != ended(w.err) || (w.err == "nil" && got[i].consumed != w.consumed) {
			t.Fatalf("message %d, input % x:\nin place %+v\n  stream %+v", i, data, got[i], w)
		}
	}
	return want
}

// encodeBroadcast appends a broadcast message to w: the header
// PutBroadcastHeader writes, then b.Data.
func encodeBroadcast(w *Writer, b *BroadcastData) {
	var hdr []byte
	w.Buf, hdr = appendFixed(w.Buf, BroadcastHeaderBytes)
	PutBroadcastHeader(w.Order, hdr, b, len(b.Data))
	w.Bytes(b.Data)
}

// goldenStream is golden_test.go's messages — the record reply with its
// padded payload, the broadcast chunk — plus one of each fixed-size kind,
// as one stream in the given order. The reply with Extra comes first and is
// 24 bytes, so behind it headers land on every multiple of 8 and straddle
// the end of any small bufio buffer.
func goldenStream(order binary.ByteOrder) (stream []byte, messages int) {
	w := &Writer{Order: order}
	(&Reply{Seq: 0x0102, Time: 0x11223344, Aux: 5, Extra: []byte{0x10, 0x20, 0x30, 0x40, 0x50}}).Encode(w)
	(&Reply{Data: 9, Seq: 0x0103, Time: 0x11223345}).Encode(w)
	encodeBroadcast(w, &BroadcastData{Enc: 3, BigEndianData: true, Seq: 0x0102, Time: 0x11223344, Channel: 0x0A0B0C0D,
		Data: []byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80}})
	(&Reply{Seq: 0x0104, Time: 0x11223346, Aux: 0xFFFFFFFF}).Encode(w)
	w.Buf = (&ErrorMsg{Code: ErrOverload, Seq: 0x0105, BadValue: 0xDEADBEEF, MajorOp: OpPlaySamples}).Append(w.Buf, w.Order)
	(&Reply{Seq: 0x0106}).Encode(w)
	w.Buf = (&Event{Code: EventPhoneRing, Detail: 1, Seq: 0x0106, Device: 2, Time: 3, HostSec: 4, HostNsec: 5, Value: 6}).Append(w.Buf, w.Order)
	(&Reply{Seq: 0x0107, Aux: 3, Extra: []byte{1, 2, 3}}).Encode(w)
	return w.Buf, 8
}

func TestReadMessageEveryWay(t *testing.T) {
	for _, o := range wireOrders {
		t.Run(o.name, func(t *testing.T) {
			stream, n := goldenStream(o.order)
			// Whole stream: every window size from bufio's minimum up, so each
			// header meets the buffer end at every offset; with and without a
			// direct destination for the awaited reply.
			for window := 16; window <= 80; window++ {
				for _, dstLen := range []int{0, 3, 8} {
					steps := sameEveryWay(t, window, stream, o.order, 0x0102, dstLen, n+1)
					if len(steps) != n+1 || steps[n].err != "EOF" || steps[n].consumed != len(stream) {
						t.Fatalf("window %d: %d steps, last %+v; want %d messages then EOF at %d", window, len(steps), steps[len(steps)-1], n, len(stream))
					}
				}
			}
			// Every truncation: same messages before the cut, same error
			// class at it, same bytes gone.
			for cut := 0; cut < len(stream); cut++ {
				steps := sameEveryWay(t, 64, stream[:cut], o.order, 0x0107, 8, n+1)
				if last := steps[len(steps)-1]; last.err == "nil" {
					t.Fatalf("cut %d: no error after %d messages", cut, len(steps))
				}
			}
			// An absurd declared length is refused with the header consumed.
			over := append([]byte(nil), stream[:ReplyHeaderBytes]...)
			o.order.PutUint32(over[4:], 1<<30)
			steps := sameEveryWay(t, 64, over, o.order, 0, 0, 1)
			if steps[0].consumed != ReplyHeaderBytes || steps[0].err == "nil" {
				t.Fatalf("oversized reply: %+v", steps[0])
			}
		})
	}
}

// TestOversizedPayloadRefused declares 2^30 words, a payload past
// MaxReplyExtraBytes whose byte size wraps int on a 32-bit platform, in a
// reply and in a broadcast: every read path refuses it with the header
// consumed, on every architecture.
func TestOversizedPayloadRefused(t *testing.T) {
	for _, o := range wireOrders {
		w := &Writer{Order: o.order}
		(&Reply{Seq: 1}).Encode(w)
		encodeBroadcast(w, &BroadcastData{Seq: 1})
		for _, hdr := range [][]byte{w.Buf[:ReplyHeaderBytes], w.Buf[ReplyHeaderBytes:]} {
			over := append([]byte(nil), hdr...)
			o.order.PutUint32(over[4:], 1<<30)
			steps := sameEveryWay(t, 64, over, o.order, 1, 0, 1)
			if steps[0].consumed != len(over) || !strings.Contains(steps[0].err, "exceeds maximum") {
				t.Errorf("%s, kind %d: 2^30 words read as %+v, want refused", o.name, over[0], steps[0])
			}
		}
	}
}

// replyEncode is one smallop cycle's reply staging: 33 fixed-size replies
// appended to one outgoing message.
func replyEncode(tb testing.TB) func() {
	buf := make([]byte, 0, 33*ReplyHeaderBytes)
	var order binary.ByteOrder = binary.LittleEndian
	var now uint32
	return func() {
		buf = buf[:0]
		now++
		for seq := uint16(0); seq < 33; seq++ {
			buf = (&Reply{Seq: seq, Time: now}).Append(buf, order)
		}
		if len(buf) != 33*ReplyHeaderBytes {
			tb.Fatalf("staged %d bytes", len(buf))
		}
	}
}

// readReplies is the client's side of the same cycle: 33 replies that
// arrived in one read, parsed out of one bufio window.
func readReplies(tb testing.TB) func() {
	w := &Writer{Order: binary.LittleEndian}
	for seq := uint16(0); seq < 33; seq++ {
		(&Reply{Seq: seq, Time: 7}).Encode(w)
	}
	src := bytes.NewReader(w.Buf)
	br := bufio.NewReaderSize(src, 4096)
	var m Message
	return func() {
		src.Reset(w.Buf)
		br.Reset(src)
		for seq := uint16(0); seq < 33; seq++ {
			if err := ReadMessageInto(br, binary.LittleEndian, &m); err != nil || m.Reply.Seq != seq {
				tb.Fatalf("reply %d: %v %+v", seq, err, m.Reply)
			}
		}
	}
}

// BenchmarkReplyEncode and BenchmarkReadReplies time the two fixtures;
// TestReplyCodecAllocs holds them to 0 allocations.
func BenchmarkReplyEncode(b *testing.B) { benchCycle(b, replyEncode(b)) }
func BenchmarkReadReplies(b *testing.B) { benchCycle(b, readReplies(b)) }

func benchCycle(b *testing.B, cycle func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
