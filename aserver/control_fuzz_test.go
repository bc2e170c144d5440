package aserver

import (
	"bufio"
	"encoding/binary"
	"net"
	"testing"

	"audiofile/internal/proto"
	"audiofile/internal/vdev"
)

// controlState is what a control request that must change nothing must
// not change: the arrangement of TestControlShortBodyIsLengthError, where
// device 0, AC 0, gain 0 and atom 0 — what a decoder reads past the end of
// a short body — all name something.
type controlState struct {
	acs, patches, hosts, atoms int
	in, out                    int
	mask                       uint32
	prop                       string
	offHook, access            bool
}

// controlRig is a phone (device 0) and a codec (device 1) on a clock that
// never moves, one raw little-endian connection, and that arrangement.
type controlRig struct {
	srv  *Server
	nc   net.Conn
	br   *bufio.Reader
	seq  uint16
	prop uint32 // the atom of the property on device 0
}

func newControlRig(t testing.TB) *controlRig {
	t.Helper()
	clk := vdev.NewManualClock(8000)
	srv, err := New(Options{
		Devices: []DeviceSpec{{Kind: "phone", Clock: clk}, {Kind: "codec", Clock: clk}},
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	r := &controlRig{srv: srv, nc: srv.DialPipe(), prop: uint32(len(proto.BuiltinAtomNames))}
	t.Cleanup(func() { r.nc.Close() })
	r.br = bufio.NewReader(r.nc)
	handshake(t, r.nc, r.br)
	var w proto.Writer
	w.Order = binary.LittleEndian
	for _, err := range []error{
		proto.AppendInternAtom(&w, proto.InternAtomReq{Name: "FUZZ_PROP"}),
		proto.AppendCreateAC(&w, proto.CreateACReq{AC: 0, Device: 0}),
		proto.AppendGainReq(&w, proto.OpSetInputGain, proto.GainReq{Device: 0, Gain: 5}),
		proto.AppendGainReq(&w, proto.OpSetOutputGain, proto.GainReq{Device: 0, Gain: 7}),
		proto.AppendSelectEvents(&w, proto.SelectEventsReq{Device: 0, Mask: proto.EventMaskFor(proto.EventPhoneRing)}),
		proto.AppendChangeProperty(&w, proto.ChangePropertyReq{Device: 0, Property: r.prop,
			Type: proto.AtomSTRING, Format: 8, Mode: proto.PropModeReplace, Data: []byte("kept")}),
		proto.AppendEnablePassThrough(&w, proto.PassThroughReq{Device: 0, Other: 1}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if msgs := r.send(t, w.Buf, 7); len(msgs) != 1 || msgs[0].Reply == nil || msgs[0].Reply.Aux != r.prop {
		t.Fatalf("the arrangement drew %d messages, want the InternAtom reply alone", len(msgs))
	}
	return r
}

// send writes n requests and a SyncConnection behind them, and returns a
// copy of every message that came back ahead of the sync's reply.
func (r *controlRig) send(t testing.TB, reqs []byte, n int) (msgs []proto.Message) {
	t.Helper()
	w := proto.Writer{Order: binary.LittleEndian, Buf: reqs}
	proto.AppendEmptyReq(&w, proto.OpSyncConnection, 0) //nolint:errcheck
	go r.nc.Write(w.Buf)                                //nolint:errcheck — a pipe: the replies must be read meanwhile
	r.seq += uint16(n) + 1
	for {
		var m proto.Message
		if err := proto.ReadMessageInto(r.br, binary.LittleEndian, &m); err != nil {
			t.Fatal(err)
		}
		if m.Reply != nil && m.Reply.Seq == r.seq {
			return msgs
		}
		msgs = append(msgs, m)
	}
}

func (r *controlRig) observe() (st controlState) {
	srv := r.srv
	srv.Do(func() {
		for c := range srv.clients {
			st.acs += len(c.acs)
			st.mask |= c.eventMasks[0]
		}
		st.hosts, st.atoms, st.access = len(srv.accessList), len(srv.atoms.names), srv.accessEnabled
		if p := srv.props[0][r.prop]; p != nil {
			st.prop = string(p.data)
		}
		e := srv.engineByDev[0]
		e.mu.Lock()
		st.patches = len(e.patches)
		st.in, st.out = srv.Device(0).InputGain(), srv.Device(0).OutputGain()
		e.mu.Unlock()
	})
	st.offHook = srv.PhoneLine(0).OffHook()
	return st
}

// FuzzControlBody sends one request — any opcode, any extension byte,
// any body — at that arrangement. No input may panic the server or draw
// more than one message; the request is counted once; and a body shorter
// than its row's fixed fields draws ErrLength and changes nothing, as an
// opcode with no row draws ErrRequest. That holds on both planes: a hot
// row's short body meets the same gate before it can park. A hot row's
// whole body is FuzzBatchFraming's: a play or record can park, which this
// rig's still clock would never resolve.
func FuzzControlBody(f *testing.F) {
	for op, row := range opTable {
		if row.handle != nil {
			f.Add(uint8(op), uint8(0), make([]byte, row.fixed))
		}
		if row.handle != nil || row.hot {
			f.Add(uint8(op), uint8(0), []byte{})
			if row.fixed > 4 {
				f.Add(uint8(op), uint8(1), make([]byte, row.fixed-4))
			}
		}
	}
	// Every request of the control golden: each row with a body that works.
	stream, _ := controlGoldenStream(f, binary.LittleEndian)
	for off := 0; off < len(stream); {
		n := 4 * int(binary.LittleEndian.Uint16(stream[off+2:]))
		f.Add(stream[off], stream[off+1], stream[off+4:off+n])
		off += n
	}
	f.Fuzz(func(t *testing.T, op, ext uint8, body []byte) {
		row := &opTable[op]
		body = body[:min(len(body), 256)&^3]
		if row.hot && len(body) >= row.fixed {
			t.Skip()
		}
		r := newControlRig(t)
		before, counted := r.observe(), r.srv.Snapshot().Requests

		req := append([]byte{op, ext, 0, 0}, body...)
		binary.LittleEndian.PutUint16(req[2:], uint16(len(req)/4))
		msgs := r.send(t, req, 1)

		if got := r.srv.Snapshot().Requests - counted; got != 2 {
			t.Errorf("the request and its sync were counted as %d requests", got)
		}
		if len(msgs) > 1 {
			t.Fatalf("drew %d messages: %+v", len(msgs), msgs)
		}
		want := uint8(0)
		if row.handle == nil && !row.hot {
			want = proto.ErrRequest
		} else if len(body) < row.fixed {
			want = proto.ErrLength
		}
		if want == 0 {
			return
		}
		if len(msgs) == 0 || msgs[0].Error == nil || msgs[0].Error.Code != want ||
			msgs[0].Error.Seq != r.seq-1 || msgs[0].Error.MajorOp != op {
			t.Errorf("drew %+v, want error %d for opcode %d, sequence number %d", msgs, want, op, r.seq-1)
		}
		if after := r.observe(); after != before {
			t.Errorf("changed server state:\n got %+v\nwant %+v", after, before)
		}
	})
}

// TestRequestCountedBeforeReply holds each SyncConnection's handler open
// once it has queued its reply, while a writer that is already running —
// started by a ring event the client has not yet read — sends that reply.
// Read behind each of 1,000 replies, Requests must count the request.
func TestRequestCountedBeforeReply(t *testing.T) {
	r := newControlRig(t)
	row := &opTable[proto.OpSyncConnection]
	handle := row.handle
	pushed, checked, stop := make(chan struct{}), make(chan struct{}), make(chan struct{})
	row.handle = func(s *Server, q *ctlReq) {
		handle(s, q)
		select {
		case pushed <- struct{}{}:
			<-checked
		case <-stop:
		}
	}
	t.Cleanup(func() { close(stop); row.handle = handle })

	base := r.srv.Snapshot().Requests
	req := make([]byte, 4) // a SyncConnection: opcode, extension, length 1
	req[0], req[2] = proto.OpSyncConnection, 1
	for i := uint64(1); i <= 1000; i++ {
		r.srv.PhoneLine(0).RingPulse()
		r.srv.Sync()
		if _, err := r.nc.Write(req); err != nil {
			t.Fatal(err)
		}
		<-pushed
		var m proto.Message
		for m.Reply == nil {
			if err := proto.ReadMessageInto(r.br, binary.LittleEndian, &m); err != nil {
				t.Fatal(err)
			}
		}
		got := r.srv.Snapshot().Requests - base
		checked <- struct{}{}
		if got != i {
			t.Fatalf("reply %d arrived with %d requests counted", i, got)
		}
	}
}
