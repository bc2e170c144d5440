package aserver

import (
	"bufio"
	"encoding/binary"
	"testing"

	"audiofile/internal/proto"
)

// TestControlShortBodyIsLengthError sends every control request that
// carries a body twice malformed — with no body at all, and with its last
// word missing — and requires ErrLength and no effect. A decoder reads
// zeros past the end of a short body, so an unchecked one acts on device
// 0, AC 0, gain 0: the server state here is arranged so each of those
// would show.
func TestControlShortBodyIsLengthError(t *testing.T) {
	srv, err := New(Options{
		Devices: []DeviceSpec{{Kind: "phone"}, {Kind: "codec"}},
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc := dialRaw(t, srv)
	if nc == nil {
		t.FailNow()
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	var msg proto.Message
	// roundTrip sends one request followed by a SyncConnection and
	// returns the error the request drew, if any, and its reply's Aux.
	var seq uint16
	roundTrip := func(req []byte) (code uint8, aux uint32) {
		t.Helper()
		w := proto.Writer{Order: binary.LittleEndian, Buf: append([]byte(nil), req...)}
		proto.AppendEmptyReq(&w, proto.OpSyncConnection, 0) //nolint:errcheck
		if _, err := nc.Write(w.Buf); err != nil {
			t.Fatal(err)
		}
		seq += 2
		for {
			if err := proto.ReadMessageInto(br, binary.LittleEndian, &msg); err != nil {
				t.Fatal(err)
			}
			switch {
			case msg.Error != nil:
				code = msg.Error.Code
			case msg.Reply != nil && msg.Reply.Seq == seq:
				return code, aux
			case msg.Reply != nil:
				aux = msg.Reply.Aux
			}
		}
	}
	build := func(fn func(w *proto.Writer) error) []byte {
		t.Helper()
		w := proto.Writer{Order: binary.LittleEndian}
		if err := fn(&w); err != nil {
			t.Fatal(err)
		}
		return w.Buf
	}
	// shorten drops words from the end of a request and fixes its length.
	shorten := func(req []byte, words int) []byte {
		out := append([]byte(nil), req[:len(req)-4*words]...)
		binary.LittleEndian.PutUint16(out[2:], uint16(len(out)/4))
		return out
	}

	// The state a zero-filled decode would disturb: AC 0 exists, device 0
	// has nonzero gains, an event mask, a property and a patch to device
	// 1, and its phone is on-hook.
	_, prop := roundTrip(build(func(w *proto.Writer) error {
		return proto.AppendInternAtom(w, proto.InternAtomReq{Name: "SHORT_BODY_PROP"})
	}))
	setup := [][]byte{
		build(func(w *proto.Writer) error { return proto.AppendCreateAC(w, proto.CreateACReq{AC: 0, Device: 0}) }),
		build(func(w *proto.Writer) error {
			return proto.AppendGainReq(w, proto.OpSetInputGain, proto.GainReq{Device: 0, Gain: 5})
		}),
		build(func(w *proto.Writer) error {
			return proto.AppendGainReq(w, proto.OpSetOutputGain, proto.GainReq{Device: 0, Gain: 7})
		}),
		build(func(w *proto.Writer) error {
			return proto.AppendSelectEvents(w, proto.SelectEventsReq{Device: 0, Mask: proto.EventMaskFor(proto.EventPhoneRing)})
		}),
		build(func(w *proto.Writer) error {
			return proto.AppendChangeProperty(w, proto.ChangePropertyReq{Device: 0, Property: prop,
				Type: proto.AtomSTRING, Format: 8, Mode: proto.PropModeReplace, Data: []byte("kept")})
		}),
		build(func(w *proto.Writer) error {
			return proto.AppendEnablePassThrough(w, proto.PassThroughReq{Device: 0, Other: 1})
		}),
	}
	for i, req := range setup {
		if code, _ := roundTrip(req); code != 0 {
			t.Fatalf("setup request %d drew error %d", i, code)
		}
	}
	type state struct {
		acs, patches, hosts, atoms int
		in, out                    int
		mask                       uint32
		prop                       string
		offHook                    bool
	}
	observe := func() (st state) {
		srv.Do(func() {
			for c := range srv.clients {
				st.acs += len(c.acs)
				st.mask |= c.eventMasks[0]
			}
			st.hosts = len(srv.accessList)
			st.atoms = int(srv.atoms.intern("SHORT_BODY_PROBE", true))
			if p := srv.props[0][prop]; p != nil {
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
	before := observe()
	if want := (state{acs: 1, patches: 1, hosts: before.hosts, in: 5, out: 7,
		mask: proto.EventMaskFor(proto.EventPhoneRing), prop: "kept"}); before != want {
		t.Fatalf("setup left %+v, want %+v", before, want)
	}

	dev := func(op uint8) func(*proto.Writer) error {
		return func(w *proto.Writer) error { return proto.AppendDeviceReq(w, op, 1) }
	}
	mask := func(op uint8) func(*proto.Writer) error {
		return func(w *proto.Writer) error {
			return proto.AppendDeviceMaskReq(w, op, proto.DeviceMaskReq{Device: 1, Mask: 1})
		}
	}
	cases := []struct {
		name string
		req  func(*proto.Writer) error
	}{
		{"SelectEvents", func(w *proto.Writer) error {
			return proto.AppendSelectEvents(w, proto.SelectEventsReq{Device: 1, Mask: 1})
		}},
		{"CreateAC", func(w *proto.Writer) error { return proto.AppendCreateAC(w, proto.CreateACReq{AC: 9, Device: 1}) }},
		{"ChangeACAttributes", func(w *proto.Writer) error { return proto.AppendChangeAC(w, proto.ChangeACReq{AC: 9}) }},
		{"FreeAC", func(w *proto.Writer) error { return proto.AppendFreeAC(w, 9) }},
		{"Subscribe", func(w *proto.Writer) error { return proto.AppendSubscribe(w, 9) }},
		{"Unsubscribe", func(w *proto.Writer) error { return proto.AppendUnsubscribe(w, 9) }},
		{"QueryPhone", dev(proto.OpQueryPhone)},
		{"EnablePassThrough", func(w *proto.Writer) error {
			return proto.AppendEnablePassThrough(w, proto.PassThroughReq{Device: 1, Other: 0})
		}},
		{"DisablePassThrough", dev(proto.OpDisablePassThrough)},
		{"HookSwitch", func(w *proto.Writer) error {
			return proto.AppendHookSwitch(w, proto.HookSwitchReq{Device: 1, State: proto.HookOff})
		}},
		{"FlashHook", func(w *proto.Writer) error {
			return proto.AppendFlashHook(w, proto.FlashHookReq{Device: 1, DurationMs: 10})
		}},
		{"SetInputGain", func(w *proto.Writer) error {
			return proto.AppendGainReq(w, proto.OpSetInputGain, proto.GainReq{Device: 1, Gain: 3})
		}},
		{"SetOutputGain", func(w *proto.Writer) error {
			return proto.AppendGainReq(w, proto.OpSetOutputGain, proto.GainReq{Device: 1, Gain: 3})
		}},
		{"QueryInputGain", dev(proto.OpQueryInputGain)},
		{"QueryOutputGain", dev(proto.OpQueryOutputGain)},
		{"EnableInput", mask(proto.OpEnableInput)},
		{"EnableOutput", mask(proto.OpEnableOutput)},
		{"DisableInput", mask(proto.OpDisableInput)},
		{"DisableOutput", mask(proto.OpDisableOutput)},
		{"ChangeHosts", func(w *proto.Writer) error {
			return proto.AppendChangeHosts(w, proto.ChangeHostsReq{Mode: proto.HostInsert,
				Host: proto.HostEntry{Family: proto.FamilyInternet, Addr: []byte{10, 0, 0, 1}}})
		}},
		{"InternAtom", func(w *proto.Writer) error {
			return proto.AppendInternAtom(w, proto.InternAtomReq{Name: "SHORT_BODY_PROBE"})
		}},
		{"GetAtomName", func(w *proto.Writer) error { return proto.AppendGetAtomName(w, proto.AtomSTRING) }},
		{"ChangeProperty", func(w *proto.Writer) error {
			return proto.AppendChangeProperty(w, proto.ChangePropertyReq{Device: 0, Property: prop,
				Type: proto.AtomSTRING, Format: 8, Mode: proto.PropModeReplace, Data: []byte("lost")})
		}},
		{"DeleteProperty", func(w *proto.Writer) error {
			return proto.AppendDeleteProperty(w, proto.DeletePropertyReq{Device: 0, Property: prop})
		}},
		{"GetProperty", func(w *proto.Writer) error {
			return proto.AppendGetProperty(w, proto.GetPropertyReq{Device: 0, Property: prop, Delete: true})
		}},
		{"ListProperties", dev(proto.OpListProperties)},
		{"QueryExtension", func(w *proto.Writer) error {
			return proto.AppendQueryExtension(w, proto.QueryExtensionReq{Name: "NONE"})
		}},
	}
	for _, tc := range cases {
		whole := build(tc.req)
		for _, cut := range []struct {
			name string
			req  []byte
		}{
			{"empty body", shorten(whole, len(whole)/4-1)},
			{"one word short", shorten(whole, 1)},
		} {
			if code, _ := roundTrip(cut.req); code != proto.ErrLength {
				t.Errorf("%s with %s: error code %d, want ErrLength (%d)", tc.name, cut.name, code, proto.ErrLength)
			}
			if after := observe(); after != before {
				t.Fatalf("%s with %s changed server state:\n got %+v\nwant %+v", tc.name, cut.name, after, before)
			}
		}
	}
}
