package proto

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// Wire-level golden tests for the two bulk sample messages. The split
// marshal entry points (PutReplyHeader, AppendPlaySamplesHeader) exist so
// the scatter-gather paths can stamp headers around payloads produced in
// place; these tests pin the wire form in both byte orders and prove the
// split marshal is byte-identical to the staged one.

var wireOrders = []struct {
	name  string
	order binary.ByteOrder
}{
	{"little", binary.LittleEndian},
	{"big", binary.BigEndian},
}

func TestRecordReplyWireGolden(t *testing.T) {
	payload := []byte{0x10, 0x20, 0x30, 0x40, 0x50} // 5 bytes: exercises the pad
	rep := Reply{Seq: 0x0102, Time: 0x11223344, Aux: uint32(len(payload))}
	golden := map[string][]byte{
		"little": {
			MsgReply, 0, // type, data
			0x02, 0x01, // seq
			0x02, 0x00, 0x00, 0x00, // extra length / 4 (Pad4(5) = 8)
			0x44, 0x33, 0x22, 0x11, // time
			0x05, 0x00, 0x00, 0x00, // aux = delivered byte count
			0x10, 0x20, 0x30, 0x40, 0x50, 0, 0, 0, // payload + pad
		},
		"big": {
			MsgReply, 0,
			0x01, 0x02,
			0x00, 0x00, 0x00, 0x02,
			0x11, 0x22, 0x33, 0x44,
			0x00, 0x00, 0x00, 0x05,
			0x10, 0x20, 0x30, 0x40, 0x50, 0, 0, 0,
		},
	}
	for _, o := range wireOrders {
		t.Run(o.name, func(t *testing.T) {
			// Staged marshal through the Writer.
			w := &Writer{Order: o.order}
			r := rep
			r.Extra = payload
			r.Encode(w)
			if !bytes.Equal(w.Buf, golden[o.name]) {
				t.Errorf("Encode:\n got % x\nwant % x", w.Buf, golden[o.name])
			}
			// Scatter-gather marshal: payload written in place first, header
			// stamped after, as the server's record egress does.
			buf := make([]byte, ReplyHeaderBytes+Pad4(len(payload)))
			copy(buf[ReplyHeaderBytes:], payload)
			PutReplyHeader(o.order, buf, &rep, len(payload))
			if !bytes.Equal(buf, golden[o.name]) {
				t.Errorf("PutReplyHeader:\n got % x\nwant % x", buf, golden[o.name])
			}
			// Round trip through the ordinary reader.
			var m Message
			if err := ReadMessageInto(bytes.NewReader(buf), o.order, &m); err != nil {
				t.Fatal(err)
			}
			if m.Reply == nil || m.Reply.Seq != rep.Seq || m.Reply.Time != rep.Time ||
				m.Reply.Aux != rep.Aux || !bytes.Equal(m.Reply.Extra, buf[ReplyHeaderBytes:]) {
				t.Errorf("round trip mismatch: %+v", m.Reply)
			}
			// Parsed in place with a destination: the payload must land in
			// the caller's buffer, not the scratch message.
			dst := make([]byte, len(payload))
			var md Message
			if n, _, err := ParseMessage(buf, o.order, &md, rep.Seq, dst); err != nil || n != len(buf) {
				t.Fatalf("ParseMessage = %d, %v", n, err)
			}
			if md.Reply == nil || &md.Reply.Extra[0] != &dst[0] {
				t.Error("direct read did not alias the destination buffer")
			}
			if !bytes.Equal(dst, payload) {
				t.Errorf("direct read: got % x, want % x", dst, payload)
			}
		})
	}
}

func TestBroadcastWireGolden(t *testing.T) {
	payload := []byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80} // 2 units
	bd := BroadcastData{Enc: 3, BigEndianData: true, Seq: 0x0102, Time: 0x11223344, Channel: 0x0A0B0C0D}
	golden := map[string][]byte{
		"little": {
			MsgBroadcast, 3 | BroadcastFlagBigEndian,
			0x02, 0x01, // seq
			0x02, 0x00, 0x00, 0x00, // data length / 4
			0x44, 0x33, 0x22, 0x11, // time
			0x0D, 0x0C, 0x0B, 0x0A, // ac
			0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80,
		},
		"big": {
			MsgBroadcast, 3 | BroadcastFlagBigEndian,
			0x01, 0x02,
			0x00, 0x00, 0x00, 0x02,
			0x11, 0x22, 0x33, 0x44,
			0x0A, 0x0B, 0x0C, 0x0D,
			0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80,
		},
	}
	for _, o := range wireOrders {
		t.Run(o.name, func(t *testing.T) {
			// Scatter-gather marshal: payload encoded in place first, header
			// stamped after, as the server's channel pump does.
			buf := make([]byte, BroadcastHeaderBytes+len(payload))
			copy(buf[BroadcastHeaderBytes:], payload)
			PutBroadcastHeader(o.order, buf, &bd, len(payload))
			if !bytes.Equal(buf, golden[o.name]) {
				t.Errorf("PutBroadcastHeader:\n got % x\nwant % x", buf, golden[o.name])
			}
			// Round trip through the reader, interleaved with a reply to
			// prove the stream stays framed.
			w2 := &Writer{Order: o.order}
			w2.Bytes(buf)
			(&Reply{Seq: 7, Time: 1}).Encode(w2)
			rd := bytes.NewReader(w2.Buf)
			var m Message
			if err := ReadMessageInto(rd, o.order, &m); err != nil {
				t.Fatal(err)
			}
			got := m.Broadcast
			if got == nil || got.Enc != bd.Enc || !got.BigEndianData || got.Seq != bd.Seq ||
				got.Time != bd.Time || got.Channel != bd.Channel || !bytes.Equal(got.Data, payload) {
				t.Errorf("round trip mismatch: %+v", got)
			}
			if err := ReadMessageInto(rd, o.order, &m); err != nil || m.Reply == nil || m.Reply.Seq != 7 {
				t.Fatalf("following reply misframed: %v %+v", err, m.Reply)
			}
			if m.Broadcast != nil {
				t.Error("Broadcast pointer not cleared by next read")
			}
		})
	}
}

// TestSetupRedirectWireGolden pins the setup redirect: status byte 2, the
// network and address lengths, then each string padded to 4 bytes.
func TestSetupRedirectWireGolden(t *testing.T) {
	rep := SetupReply{RedirectNetwork: "tcp", RedirectAddr: "10.0.0.7:7001", Major: 2, Minor: 1}
	golden := map[string][]byte{
		"little": {
			2, 0, // status: redirect; no reason
			0x02, 0x00, // major
			0x01, 0x00, // minor
			0x06, 0x00, // extra length / 4
			0x03, 0x00, // network length
			0x0D, 0x00, // address length
			't', 'c', 'p', 0,
			'1', '0', '.', '0', '.', '0', '.', '7', ':', '7', '0', '0', '1', 0, 0, 0,
		},
		"big": {
			2, 0,
			0x00, 0x02,
			0x00, 0x01,
			0x00, 0x06,
			0x00, 0x03,
			0x00, 0x0D,
			't', 'c', 'p', 0,
			'1', '0', '.', '0', '.', '0', '.', '7', ':', '7', '0', '0', '1', 0, 0, 0,
		},
	}
	for _, o := range wireOrders {
		t.Run(o.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := rep.Send(&buf, o.order); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), golden[o.name]) {
				t.Errorf("Send:\n got % x\nwant % x", buf.Bytes(), golden[o.name])
			}
			got, err := ReadSetupReply(bytes.NewReader(golden[o.name]), o.order)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Redirect() || got.Success || got.RedirectNetwork != "tcp" || got.RedirectAddr != rep.RedirectAddr ||
				got.Major != 2 || got.Minor != 1 {
				t.Errorf("round trip: %+v", got)
			}
		})
	}
}

func TestSubscribeRequestRoundTrip(t *testing.T) {
	for _, o := range wireOrders {
		w := &Writer{Order: o.order}
		if err := AppendSubscribe(w, 42); err != nil {
			t.Fatal(err)
		}
		if w.Buf[0] != OpSubscribe || len(w.Buf) != 8 {
			t.Fatalf("%s: subscribe wire form % x", o.name, w.Buf)
		}
		r := NewReader(o.order, w.Buf[4:])
		if ac := r.U32(); ac != 42 || r.Err != nil {
			t.Errorf("%s: decode = %d err %v", o.name, ac, r.Err)
		}
		w.Reset()
		if err := AppendUnsubscribe(w, 7); err != nil {
			t.Fatal(err)
		}
		if w.Buf[0] != OpUnsubscribe {
			t.Errorf("%s: unsubscribe op = %d", o.name, w.Buf[0])
		}
		r = NewReader(o.order, w.Buf[4:])
		if ac := r.U32(); ac != 7 || r.Err != nil {
			t.Errorf("%s: decode = %d err %v", o.name, ac, r.Err)
		}
	}
}

func TestPlayRequestWireGolden(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5, 6} // 6 bytes: exercises the pad
	q := PlaySamplesReq{AC: 7, Time: 0x0A0B0C0D, Flags: SampleFlagSuppressReply}
	golden := map[string][]byte{
		"little": {
			OpPlaySamples, SampleFlagSuppressReply,
			0x06, 0x00, // length/4: (16 + Pad4(6)) / 4
			0x07, 0x00, 0x00, 0x00, // AC
			0x0D, 0x0C, 0x0B, 0x0A, // time
			0x06, 0x00, 0x00, 0x00, // NBytes
			1, 2, 3, 4, 5, 6, 0, 0, // data + pad
		},
		"big": {
			OpPlaySamples, SampleFlagSuppressReply,
			0x00, 0x06,
			0x00, 0x00, 0x00, 0x07,
			0x0A, 0x0B, 0x0C, 0x0D,
			0x00, 0x00, 0x00, 0x06,
			1, 2, 3, 4, 5, 6, 0, 0,
		},
	}
	for _, o := range wireOrders {
		t.Run(o.name, func(t *testing.T) {
			// Staged marshal: data copied through the request buffer.
			w := &Writer{Order: o.order}
			qd := q
			qd.Data = data
			if err := AppendPlaySamples(w, qd); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.Buf, golden[o.name]) {
				t.Errorf("AppendPlaySamples:\n got % x\nwant % x", w.Buf, golden[o.name])
			}
			// Scatter-gather marshal: header alone, then the caller's data
			// and pad as separate slices, as the client's vectored play does.
			hw := &Writer{Order: o.order}
			if err := AppendPlaySamplesHeader(hw, q, len(data)); err != nil {
				t.Fatal(err)
			}
			gathered := append([]byte(nil), hw.Buf...)
			gathered = append(gathered, data...)
			for len(gathered)%4 != 0 {
				gathered = append(gathered, 0)
			}
			if !bytes.Equal(gathered, golden[o.name]) {
				t.Errorf("AppendPlaySamplesHeader:\n got % x\nwant % x", gathered, golden[o.name])
			}
			// Aligned payloads need no pad; the two marshals must still agree.
			w.Reset()
			qd.Data = data[:4]
			if err := AppendPlaySamples(w, qd); err != nil {
				t.Fatal(err)
			}
			hw.Reset()
			if err := AppendPlaySamplesHeader(hw, q, 4); err != nil {
				t.Fatal(err)
			}
			gathered = append(append([]byte(nil), hw.Buf...), data[:4]...)
			if !bytes.Equal(gathered, w.Buf) {
				t.Errorf("aligned payload:\n staged % x\ngather % x", w.Buf, gathered)
			}
		})
	}
}

func TestAppendPlaySamplesHeaderOversized(t *testing.T) {
	w := &Writer{Order: binary.LittleEndian}
	w.U8(0xAA) // pre-existing queued byte must survive a failed append
	if err := AppendPlaySamplesHeader(w, PlaySamplesReq{}, MaxRequestBytes); err == nil {
		t.Fatal("expected error for oversized request")
	}
	if len(w.Buf) != 1 || w.Buf[0] != 0xAA {
		t.Errorf("failed append modified the buffer: % x", w.Buf)
	}
}
