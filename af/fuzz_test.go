package af_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/internal/proto"
)

// TestDispatcherStructuredFuzz sends thousands of well-framed requests
// with random opcodes (valid and invalid) and random bodies. The server
// must answer every one with a reply, an error, or nothing — never crash,
// never desynchronize — and a SyncConnection afterwards must still round
// trip.
func TestDispatcherStructuredFuzz(t *testing.T) {
	r := newStack(t)
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nc, err := net.Dial("unix", r.addr)
		if err != nil {
			t.Fatal(err)
		}
		// Raw handshake.
		setup := []byte{'l', 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0}
		if _, err := nc.Write(setup); err != nil {
			t.Fatal(err)
		}
		hdr := make([]byte, 8)
		readFullDeadline(t, nc, hdr)
		extra := make([]byte, int(binary.LittleEndian.Uint16(hdr[6:]))*4)
		readFullDeadline(t, nc, extra)

		// Drain server messages in the background so the out queue never
		// fills; we don't interpret them.
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			buf := make([]byte, 64<<10)
			for {
				nc.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
				if _, err := nc.Read(buf); err != nil {
					return
				}
			}
		}()

		for i := 0; i < 3000; i++ {
			op := uint8(rng.Intn(48)) // includes invalid opcodes
			ext := uint8(rng.Intn(256))
			bodyWords := rng.Intn(16)
			req := make([]byte, 4+4*bodyWords)
			req[0] = op
			req[1] = ext
			binary.LittleEndian.PutUint16(req[2:], uint16(len(req)/4))
			rng.Read(req[4:])
			// Small field values hit real devices/ACs more often.
			if len(req) >= 8 && rng.Intn(2) == 0 {
				binary.LittleEndian.PutUint32(req[4:], uint32(rng.Intn(6)))
			}
			if _, err := nc.Write(req); err != nil {
				t.Fatalf("seed %d req %d: %v", seed, i, err)
			}
		}
		nc.Close()
		<-drained
	}

	// The server is still sane.
	good := r.dial(t)
	if err := good.Sync(); err != nil {
		t.Fatalf("server unhealthy after fuzz: %v", err)
	}
	if _, err := good.GetTime(1); err != nil {
		t.Fatalf("GetTime after fuzz: %v", err)
	}
}

// FuzzClient runs the library against a scripted peer over net.Pipe whose
// every byte comes from the fuzzer: the peer sends a setup part, then the
// parts that answer a GetTime, a non-blocking RecordSamples, a
// PlaySamples, a GetProperty, a blocking RecordSamples and a ListHosts,
// and closes when its bytes run out. No input may panic the library or
// hang it; RecordSamples never reports more bytes than its buffer holds,
// nor fewer than none; a record or ListHosts reply that declares more
// than proto.MaxReplyExtraBytes, met where a reply begins, is refused,
// not read; and a property value returned from a peer that framed every
// part as one message holds exactly the bytes its length word declares.
func FuzzClient(f *testing.F) {
	le := binary.LittleEndian
	var setup bytes.Buffer
	(&proto.SetupReply{Success: true, Major: proto.ProtocolMajor, Minor: proto.ProtocolMinor, Vendor: "fuzz",
		Devices: []proto.DeviceDesc{{Name: "codec0", PlaySampleFreq: 8000, PlayNchannels: 1,
			RecSampleFreq: 8000, RecNchannels: 1}}}).Send(&setup, le) //nolint:errcheck
	reply := func(seq uint16, aux uint32, extra []byte) []byte {
		return (&proto.Reply{Seq: seq, Time: 1000, Aux: aux, Extra: extra}).Append(nil, le)
	}
	// The client's sequence numbers: GetTime 1, CreateAC 2 (no reply),
	// RecordSamples 3, PlaySamples 4, GetProperty 5, the blocking
	// RecordSamples 6, ListHosts 7.
	getTime, play := reply(1, 0, nil), reply(4, 0, nil)
	huge := reply(3, 64, nil)
	le.PutUint32(huge[4:], proto.MaxReplyExtraBytes/4+1)
	property := func(declared uint32, data string) []byte {
		extra := le.AppendUint32(le.AppendUint32(nil, uint32(af.AtomSTRING)), declared)
		return (&proto.Reply{Data: 8, Seq: 5, Aux: uint32(len(data)), Extra: append(extra, data...)}).Append(nil, le)
	}
	blocking := reply(6, 64, make([]byte, 64))
	w := proto.Writer{Order: le}
	proto.EncodeHostList(&w, []proto.HostEntry{{Family: proto.FamilyInternet, Addr: []byte{127, 0, 0, 1}}})
	hosts := (&proto.Reply{Data: 1, Seq: 7, Aux: 1, Extra: w.Buf}).Append(nil, le)
	for _, rec := range [][]byte{
		reply(3, 64, make([]byte, 64)),         // the whole buffer
		reply(3, 20, make([]byte, 20)),         // what was captured
		reply(3, 0xFFFFFFFF, make([]byte, 64)), // a count past the payload
		reply(3, 128, make([]byte, 128)),       // a payload past the buffer
		huge,
	} {
		f.Add(setup.Bytes(), getTime, rec, play, property(4, "abcd"), blocking, hosts)
	}
	// A length word of 2³¹ or more, which a 32-bit int reads as negative.
	f.Add(setup.Bytes(), getTime, reply(3, 64, make([]byte, 64)), play, property(0x80000000, ""), blocking, hosts)
	f.Fuzz(func(t *testing.T, setup, getTime, record, play, prop, blockRecord, listHosts []byte) {
		cli, srv := net.Pipe()
		peerDone := make(chan struct{})
		go scriptedPeer(srv, peerDone, setup, getTime, record, play, prop, blockRecord, listHosts)
		done := make(chan struct{})
		go func() {
			defer close(done)
			c, err := af.NewConn(cli)
			if err != nil {
				return
			}
			defer c.Close()
			c.SetErrorHandler(func(*af.Conn, *af.ProtoError) {})
			c.SetIOErrorHandler(func(*af.Conn, error) {})
			if _, err := c.GetTime(0); err != nil || len(c.Devices()) == 0 {
				return
			}
			ac, err := c.CreateAC(0, 0, af.ACAttributes{})
			if err != nil {
				return
			}
			buf := make([]byte, 64)
			_, n, err := ac.RecordSamples(0, buf, false)
			if n < 0 || n > len(buf) {
				t.Errorf("RecordSamples reported %d bytes into a buffer of %d", n, len(buf))
			}
			if declared(record) > proto.MaxReplyExtraBytes && onlyReply(getTime, 1) && !refused(err) {
				t.Errorf("a record reply declaring %d bytes drew %v, want it refused", declared(record), err)
			}
			ac.PlaySamples(0, make([]byte, 64)) //nolint:errcheck
			v, err := c.GetProperty(0, af.AtomCOPYRIGHT, af.AtomNone, false)
			inStep := framed(setup, getTime, record, play, prop)
			if err == nil && inStep {
				if n := le.Uint32(prop[proto.ReplyHeaderBytes+4:]); uint64(len(v.Data)) != uint64(n) {
					t.Errorf("GetProperty returned %d bytes of a value declared %d long", len(v.Data), n)
				}
			}
			_, n, err = ac.RecordSamples(0, buf, true)
			if n < 0 || n > len(buf) {
				t.Errorf("a blocking RecordSamples reported %d bytes into a buffer of %d", n, len(buf))
			}
			if declared(blockRecord) > proto.MaxReplyExtraBytes && inStep && !refused(err) {
				t.Errorf("a blocking record reply declaring %d bytes drew %v, want it refused", declared(blockRecord), err)
			}
			_, _, err = c.ListHosts()
			if declared(listHosts) > proto.MaxReplyExtraBytes && inStep && onlyReply(blockRecord, 6) && !refused(err) {
				t.Errorf("a ListHosts reply declaring %d bytes drew %v, want it refused", declared(listHosts), err)
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("the client hung")
		}
		cli.Close()
		<-peerDone
	})
}

// declared is the payload size the reply header at the head of b
// declares, or 0.
func declared(b []byte) uint64 {
	if len(b) < proto.ReplyHeaderBytes || b[0] != proto.MsgReply {
		return 0
	}
	return uint64(binary.LittleEndian.Uint32(b[4:])) * 4
}

// refused reports whether err refuses a reply, rather than reporting
// success or a stream that merely ended.
func refused(err error) bool {
	return err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF)
}

// onlyReply reports whether b is exactly one reply, to seq: a client that
// waits for that reply reads b to its end and no further. A part of 16
// bytes that is not a reply is no such part: the client reads any other
// message type as an event, which is longer.
func onlyReply(b []byte, seq uint16) bool {
	return declared(b)+proto.ReplyHeaderBytes == uint64(len(b)) && b[0] == proto.MsgReply &&
		binary.LittleEndian.Uint16(b[2:]) == seq
}

// framed reports whether the peer's parts are one setup reply, then one
// reply each to GetTime, RecordSamples, PlaySamples and GetProperty, the
// last long enough to hold a value's type and length words: the client
// reads that part as its GetProperty reply.
func framed(setup, getTime, record, play, prop []byte) bool {
	r := bytes.NewReader(setup)
	_, err := proto.ReadSetupReplyBytes(r, binary.LittleEndian)
	return err == nil && r.Len() == 0 && onlyReply(getTime, 1) && onlyReply(record, 3) &&
		onlyReply(play, 4) && onlyReply(prop, 5) && len(prop) >= proto.ReplyHeaderBytes+8
}

// scriptedPeer writes parts to nc in order, then closes it, while it
// drains whatever the client sends: the peer never stops reading, so a
// client that does not read its answers cannot wedge a write of its own.
// It closes done once its drain has ended too.
func scriptedPeer(nc net.Conn, done chan<- struct{}, parts ...[]byte) {
	drained := make(chan struct{})
	go func() {
		io.Copy(io.Discard, nc) //nolint:errcheck — ends when nc closes
		close(drained)
	}()
	for _, p := range parts {
		if _, err := nc.Write(p); err != nil {
			break
		}
	}
	nc.Close()
	<-drained
	close(done)
}
