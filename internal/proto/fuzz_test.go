package proto

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// Native fuzz targets for the wire parsers. `go test` runs the seed
// corpus; `go test -fuzz=FuzzX` explores further.

func FuzzReadMessage(f *testing.F) {
	// Seed with one well-formed instance of each message class.
	w := &Writer{Order: binary.LittleEndian}
	(&Reply{Data: 1, Seq: 2, Time: 3, Aux: 4, Extra: []byte{1, 2, 3, 4}}).Encode(w)
	f.Add(append([]byte(nil), w.Buf...))
	w.Reset()
	w.Buf = (&ErrorMsg{Code: ErrDevice, Seq: 9}).Append(w.Buf, w.Order)
	f.Add(append([]byte(nil), w.Buf...))
	w.Reset()
	w.Buf = (&Event{Code: EventPhoneRing, Detail: 1}).Append(w.Buf, w.Order)
	f.Add(append([]byte(nil), w.Buf...))
	w.Reset()
	encodeBroadcast(w, &BroadcastData{Enc: 1, Seq: 5, Time: 6, Channel: 7, Data: []byte{1, 2, 3, 4}})
	f.Add(append([]byte(nil), w.Buf...))
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{MsgBroadcast, 0x81, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F}) // truncated, absurd length

	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; errors are fine. Cap the declared extra length
		// effect by construction: ReadMessage allocates extraLen*4, so
		// reject inputs that would ask for absurd allocations the same way
		// a production reader would be wrapped with a limit.
		if len(data) >= 8 && (data[0] == MsgReply || data[0] == MsgBroadcast) {
			extra := binary.LittleEndian.Uint32(data[4:8])
			if extra > 1<<16 {
				return
			}
		}
		msg, err := ReadMessage(bytes.NewReader(data), binary.LittleEndian)
		if err == nil && msg == nil {
			t.Fatal("nil message with nil error")
		}
	})
}

// FuzzParseMessage drives the in-place parser's direct reply path —
// ParseMessage with a destination for the awaited reply, as the client
// library parses its read buffer — with truncated and length-corrupted
// inputs. Unlike FuzzReadMessage it does not cap the declared extra length
// by hand: the parser's own MaxReplyExtraBytes guard must reject oversized
// claims before allocating. Every input is also read as a stream of
// messages through each path into ReadMessageInto (sameEveryWay:
// streaming, bufio window, a window that is never whole), which must agree
// on the messages, the error class and the bytes consumed, and parsed in
// place from a buffer grown by the need ParseMessage reports, which must
// agree with them.
func FuzzParseMessage(f *testing.F) {
	w := &Writer{Order: binary.LittleEndian}
	(&Reply{Seq: 1, Aux: 8, Extra: []byte{1, 2, 3, 4, 5, 6, 7, 8}}).Encode(w)
	whole := append([]byte(nil), w.Buf...)
	f.Add(whole, uint16(1), 8)
	f.Add(whole, uint16(2), 8) // seq mismatch: scratch path
	f.Add(whole, uint16(1), 3) // dst shorter than payload: tail discarded
	for cut := 1; cut < len(whole); cut += 5 {
		f.Add(append([]byte(nil), whole[:cut]...), uint16(1), 8) // truncated
	}
	over := append([]byte(nil), whole...)
	binary.LittleEndian.PutUint32(over[4:8], 1<<30) // absurd declared length
	f.Add(over, uint16(1), 8)
	// Typed goodbye errors (Overload eviction, Drain shutdown) arriving in
	// the middle of a direct read: the reader must route them out as Error
	// messages, never confuse them with the awaited reply.
	w.Reset()
	w.Buf = (&ErrorMsg{Code: ErrOverload, Seq: 1, BadValue: 1 << 20}).Append(w.Buf, w.Order)
	f.Add(append([]byte(nil), w.Buf...), uint16(1), 8)
	w.Reset()
	w.Buf = (&ErrorMsg{Code: ErrDrain, Seq: 3}).Append(w.Buf, w.Order)
	f.Add(append([]byte(nil), w.Buf...), uint16(1), 0)
	// A broadcast chunk arriving mid-read must route out like an event,
	// never be confused with the awaited reply.
	w.Reset()
	encodeBroadcast(w, &BroadcastData{Enc: 1, Seq: 2, Channel: 4, Data: []byte{9, 9, 9, 9}})
	f.Add(append([]byte(nil), w.Buf...), uint16(1), 8)
	// A stream: the reply with Extra is 24 bytes, so the fourth header
	// straddles the end of the differential's 64-byte bufio window.
	stream, _ := goldenStream(binary.LittleEndian)
	f.Add(stream, uint16(0x0107), 3)
	f.Add(stream[:ReplyHeaderBytes-1], uint16(0x0102), 8) // truncated header
	f.Add(stream[:4*ReplyHeaderBytes+5], uint16(0), 0)    // truncated inside a later header
	f.Fuzz(func(t *testing.T, data []byte, seq uint16, dstLen int) {
		if dstLen < 0 || dstLen > 1<<16 {
			return
		}
		if len(data) >= 8 && data[0] == MsgBroadcast {
			if binary.LittleEndian.Uint32(data[4:8]) > 1<<16 {
				return
			}
		}
		dst := make([]byte, dstLen)
		var m Message
		n, need, err := ParseMessage(data, binary.LittleEndian, &m, seq, dst)
		if err == nil && n == 0 && need <= len(data) {
			t.Fatalf("no message in %d bytes, and a need of %d", len(data), need)
		}
		if n > 0 && m.Reply == nil && m.Error == nil && m.Event == nil && m.Broadcast == nil {
			t.Fatal("a message consumed, none returned")
		}
		if m.Reply != nil && m.Reply.Seq == seq && len(m.Reply.Extra) > dstLen {
			t.Fatalf("direct parse overran dst: %d > %d", len(m.Reply.Extra), dstLen)
		}
		sameEveryWay(t, 64, data, binary.LittleEndian, seq, dstLen, 4)
	})
}

// FuzzErrorReply round-trips the fixed-size error message through its
// encoder and the message reader: every field must survive intact, and
// the wire image must be exactly one error-message frame. The typed
// overload/drain goodbye errors ride this format, so corrupting it
// would strand evicted clients without a reason.
func FuzzErrorReply(f *testing.F) {
	f.Add(uint8(ErrOverload), uint16(7), uint32(300_000), uint8(OpGetTime))
	f.Add(uint8(ErrDrain), uint16(0), uint32(0), uint8(0))
	f.Add(uint8(ErrValue), uint16(65535), uint32(0xFFFFFFFF), uint8(255))
	f.Fuzz(func(t *testing.T, code uint8, seq uint16, badValue uint32, major uint8) {
		in := ErrorMsg{Code: code, Seq: seq, BadValue: badValue, MajorOp: major}
		for _, order := range []binary.ByteOrder{binary.LittleEndian, binary.BigEndian} {
			w := &Writer{Order: order}
			w.Buf = in.Append(w.Buf, w.Order)
			if len(w.Buf)%4 != 0 {
				t.Fatalf("error message not 32-bit aligned: %d bytes", len(w.Buf))
			}
			msg, err := ReadMessage(bytes.NewReader(w.Buf), order)
			if err != nil {
				t.Fatalf("round trip (%v): %v", order, err)
			}
			if msg.Error == nil {
				t.Fatal("round trip produced a non-error message")
			}
			if got := *msg.Error; got != in {
				t.Fatalf("round trip (%v): got %+v, want %+v", order, got, in)
			}
		}
	})
}

func FuzzReadSetupRequest(f *testing.F) {
	var buf bytes.Buffer
	(&SetupRequest{ByteOrder: 'l', Major: 2, AuthName: "COOKIE", AuthData: []byte{1}}).Send(&buf) //nolint:errcheck
	f.Add(bytes.Clone(buf.Bytes()))
	f.Add([]byte{'B', 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{'x'})
	buf.Reset()
	(&SetupRequest{ByteOrder: 'l', Major: 2, AuthName: RouteDirectAuthName, AuthData: []byte("studio")}).Send(&buf) //nolint:errcheck
	f.Add(bytes.Clone(buf.Bytes()))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, _, err := ReadSetupRequest(bytes.NewReader(data))
		if err == nil && s == nil {
			t.Fatal("nil setup with nil error")
		}
	})
}

func FuzzReadSetupReply(f *testing.F) {
	var buf bytes.Buffer
	rep := &SetupReply{Success: true, Major: 2, Vendor: "v",
		Devices: []DeviceDesc{{Index: 0, Name: "d", PlaySampleFreq: 8000}}}
	rep.Send(&buf, binary.LittleEndian) //nolint:errcheck
	f.Add(bytes.Clone(buf.Bytes()))
	buf.Reset()
	(&SetupReply{Success: false, Reason: "nope"}).Send(&buf, binary.LittleEndian) //nolint:errcheck
	f.Add(bytes.Clone(buf.Bytes()))
	buf.Reset()
	(&SetupReply{RedirectNetwork: "tcp", RedirectAddr: "127.0.0.1:7001", Major: 2}).Send(&buf, binary.LittleEndian) //nolint:errcheck
	f.Add(bytes.Clone(buf.Bytes()))
	// A redirect with an empty address, and one whose address length runs
	// past the body.
	f.Add([]byte{2, 0, 2, 0, 0, 0, 2, 0, 3, 0, 0, 0, 't', 'c', 'p', 0})
	f.Add([]byte{2, 0, 2, 0, 0, 0, 2, 0, 0, 0, 0xFF, 0xFF, 'a', 'b', 'c', 'd'})
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ReadSetupReply(bytes.NewReader(data), binary.LittleEndian)
		if err == nil && rep.Redirect() {
			var again bytes.Buffer
			if err := rep.Send(&again, binary.LittleEndian); err != nil {
				t.Fatal(err)
			}
			back, err := ReadSetupReply(&again, binary.LittleEndian)
			if err != nil || back.RedirectNetwork != rep.RedirectNetwork || back.RedirectAddr != rep.RedirectAddr {
				t.Fatalf("redirect round trip: %+v, %v; want %+v", back, err, rep)
			}
		}
	})
}

// FuzzReader runs a random sequence of Reader calls over a random buffer:
// every call must return, Pos must stay inside the buffer and never move
// back, and once Err is set Pos must not move at all. A host list decoded
// under a count from the op stream yields at most an entry per 4 bytes.
func FuzzReader(f *testing.F) {
	f.Add([]byte{0, 6, 5}, []byte{5, 'a', 'b', 'c'}) // U8, then String4(5) past the end
	f.Add([]byte{1, 2, 3, 8, 0}, []byte{1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{5, 3, 8, 0, 7, 9}, []byte{})
	f.Add([]byte{9, 0xff, 0xff, 0xff, 0xff}, make([]byte, 8)) // a host list claiming 2³²−1 entries

	f.Fuzz(func(t *testing.T, ops, buf []byte) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			r := NewReader(binary.LittleEndian, buf)
			for i := 0; i < len(ops); i++ {
				op, n := ops[i]%10, 0
				if i+1 < len(ops) {
					n = int(int8(ops[i+1]))
				}
				pos, failed := r.Pos, r.Err != nil
				switch op {
				case 0:
					r.U8()
				case 1:
					r.U16()
				case 2:
					r.U32()
				case 3:
					r.I16()
				case 4:
					r.I32()
				case 5:
					r.BytesRef(n)
					i++
				case 6:
					r.String4(n)
					i++
				case 7:
					r.Skip(n)
					i++
				case 8:
					r.SkipPad()
				case 9:
					var count [4]byte
					i += copy(count[:], ops[i+1:])
					hosts := DecodeHostList(r, binary.LittleEndian.Uint32(count[:]))
					if len(hosts) > (len(buf)-pos)/4 {
						t.Errorf("%d hosts from %d bytes", len(hosts), len(buf)-pos)
					}
				}
				switch {
				case r.Pos < pos || r.Pos > len(buf):
					t.Errorf("op %d moved Pos %d → %d over %d bytes", op, pos, r.Pos, len(buf))
				case failed && r.Pos != pos:
					t.Errorf("op %d moved Pos %d → %d after an error", op, pos, r.Pos)
				}
			}
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("ops %v over %v did not return", ops, buf)
		}
	})
}
