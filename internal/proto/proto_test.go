package proto

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

var orders = []struct {
	name  string
	b     byte
	order binary.ByteOrder
}{
	{"little", LittleEndianOrder, binary.LittleEndian},
	{"big", BigEndianOrder, binary.BigEndian},
}

func TestRequestTableComplete(t *testing.T) {
	// "There are 37 requests in the AudioFile protocol." (Table 1)
	if OpKillClient != 37 {
		t.Errorf("OpKillClient = %d, want 37", OpKillClient)
	}
	for op := uint8(1); op <= MaxOpcode; op++ {
		if RequestName[op] == "" {
			t.Errorf("opcode %d has no name", op)
		}
	}
	// Table 1 plus the broadcast-channel extension pair.
	if len(RequestName) != MaxOpcode {
		t.Errorf("RequestName has %d entries, want %d", len(RequestName), MaxOpcode)
	}
	if OpSubscribe <= OpKillClient || OpUnsubscribe <= OpKillClient {
		t.Error("extension opcodes collide with Table 1")
	}
}

func TestEventTable(t *testing.T) {
	// "Only five event types are currently defined: four for telephone
	// control and one for interclient communications."
	if EventPropertyChange-EventPhoneRing+1 != 5 {
		t.Error("event code range is not 5 events")
	}
	phone := 0
	for code := uint8(EventPhoneRing); code <= EventPropertyChange; code++ {
		if EventMaskFor(code) == 0 {
			t.Errorf("event %d has no mask bit", code)
		}
		if code != EventPropertyChange {
			phone++
		}
	}
	if phone != 4 {
		t.Errorf("%d telephone events, want 4", phone)
	}
	if EventMaskFor(0) != 0 {
		t.Error("EventMaskFor(0) != 0")
	}
}

func TestBuiltinAtoms(t *testing.T) {
	// Table 2: 11 primitive types, 8 encoding types, 1 property.
	if AtomLastPredefined != 20 {
		t.Errorf("AtomLastPredefined = %d, want 20", AtomLastPredefined)
	}
	want := map[uint32]string{
		AtomATOM:             "ATOM",
		AtomSTRING:           "STRING",
		AtomTELEPHONE:        "TELEPHONE",
		AtomSampleMU255:      "SAMPLE_MU255",
		AtomSampleCELP1015:   "SAMPLE_CELP1015",
		AtomLastNumberDialed: "LAST_NUMBER_DIALED",
	}
	for id, name := range want {
		if BuiltinAtomNames[id] != name {
			t.Errorf("atom %d = %q, want %q", id, BuiltinAtomNames[id], name)
		}
	}
}

func TestPad4(t *testing.T) {
	for in, want := range map[int]int{0: 0, 1: 4, 3: 4, 4: 4, 5: 8, 8: 8} {
		if got := Pad4(in); got != want {
			t.Errorf("Pad4(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestOrderFor(t *testing.T) {
	if o, err := OrderFor('l'); err != nil || o != binary.LittleEndian {
		t.Error("OrderFor('l') wrong")
	}
	if o, err := OrderFor('B'); err != nil || o != binary.BigEndian {
		t.Error("OrderFor('B') wrong")
	}
	if _, err := OrderFor('x'); err == nil {
		t.Error("OrderFor('x') did not fail")
	}
}

func TestSetupRoundTrip(t *testing.T) {
	for _, o := range orders {
		t.Run(o.name, func(t *testing.T) {
			req := &SetupRequest{
				ByteOrder: o.b,
				Major:     ProtocolMajor,
				Minor:     ProtocolMinor,
				AuthName:  "MIT-MAGIC-COOKIE-1",
				AuthData:  []byte{1, 2, 3, 4, 5},
			}
			var buf bytes.Buffer
			if err := req.Send(&buf); err != nil {
				t.Fatal(err)
			}
			if buf.Len()%4 != 0 {
				t.Errorf("setup request not padded: %d bytes", buf.Len())
			}
			got, order, err := ReadSetupRequest(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if order != o.order {
				t.Errorf("order = %v, want %v", order, o.order)
			}
			if !reflect.DeepEqual(got, req) {
				t.Errorf("round trip:\n got %+v\nwant %+v", got, req)
			}
		})
	}
}

func TestSetupReplyRoundTrip(t *testing.T) {
	devs := []DeviceDesc{
		{
			Index: 0, Type: DevPhone, Name: "phone0",
			PlaySampleFreq: 8000, PlayBufType: 0, PlayNchannels: 1, PlayNSamplesBuf: 32768,
			RecSampleFreq: 8000, RecBufType: 0, RecNchannels: 1, RecNSamplesBuf: 32768,
			NumberOfInputs: 1, NumberOfOutputs: 1, InputsFromPhone: 1, OutputsToPhone: 1,
		},
		{
			Index: 1, Type: DevHiFi, Name: "hifi",
			PlaySampleFreq: 44100, PlayBufType: 2, PlayNchannels: 2, PlayNSamplesBuf: 262144,
			RecSampleFreq: 44100, RecBufType: 2, RecNchannels: 2, RecNSamplesBuf: 262144,
			NumberOfInputs: 2, NumberOfOutputs: 2,
		},
	}
	for _, o := range orders {
		t.Run(o.name, func(t *testing.T) {
			rep := &SetupReply{
				Success: true,
				Major:   ProtocolMajor, Minor: ProtocolMinor,
				Vendor:  "audiofile reproduction",
				Devices: append([]DeviceDesc(nil), devs...),
			}
			var buf bytes.Buffer
			if err := rep.Send(&buf, o.order); err != nil {
				t.Fatal(err)
			}
			got, err := ReadSetupReply(&buf, o.order)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, rep) {
				t.Errorf("round trip:\n got %+v\nwant %+v", got, rep)
			}
		})
	}
}

// TestSetupReplyDeviceHorizon sends 300 devices: the uint8 count
// advertises the first 255, and ReadSetupReplyBytes takes the reply
// whole, leaving the stream at the byte after it.
func TestSetupReplyDeviceHorizon(t *testing.T) {
	rep := &SetupReply{Success: true, Major: ProtocolMajor, Devices: make([]DeviceDesc, 300)}
	for i := range rep.Devices {
		rep.Devices[i] = DeviceDesc{Index: uint8(i), Name: "dev" + strconv.Itoa(i)}
	}
	var buf bytes.Buffer
	if err := rep.Send(&buf, binary.LittleEndian); err != nil {
		t.Fatal(err)
	}
	wire := bytes.Clone(buf.Bytes())
	buf.WriteString("next")
	raw, err := ReadSetupReplyBytes(&buf, binary.LittleEndian)
	if err != nil || !bytes.Equal(raw, wire) || buf.String() != "next" {
		t.Fatalf("read %d of %d bytes (%v), leaving %q", len(raw), len(wire), err, buf.String())
	}
	got, err := ReadSetupReply(bytes.NewReader(wire), binary.LittleEndian)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Devices) != 255 || got.Devices[254].Name != "dev254" {
		t.Errorf("advertised %d devices, want the first 255", len(got.Devices))
	}
}

func TestSetupReplyFailure(t *testing.T) {
	rep := &SetupReply{Success: false, Reason: "access denied", Major: 2, Minor: 0}
	var buf bytes.Buffer
	if err := rep.Send(&buf, binary.LittleEndian); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSetupReply(&buf, binary.LittleEndian)
	if err != nil {
		t.Fatal(err)
	}
	if got.Success || got.Reason != "access denied" {
		t.Errorf("got %+v", got)
	}
}

// parseHeader reads a request header from buf.
func parseHeader(t *testing.T, order binary.ByteOrder, buf []byte) (op, ext uint8, body *Reader) {
	t.Helper()
	if len(buf) < 4 {
		t.Fatal("short request")
	}
	n := int(order.Uint16(buf[2:4])) * 4
	if n != len(buf) {
		t.Fatalf("header length %d != buffer %d", n, len(buf))
	}
	return buf[0], buf[1], NewReader(order, buf[4:])
}

func TestRequestRoundTrips(t *testing.T) {
	for _, o := range orders {
		t.Run(o.name, func(t *testing.T) {
			w := &Writer{Order: o.order}

			w.Reset()
			if err := AppendSelectEvents(w, SelectEventsReq{Device: 3, Mask: MaskAllEvents}); err != nil {
				t.Fatal(err)
			}
			op, _, r := parseHeader(t, o.order, w.Buf)
			if op != OpSelectEvents {
				t.Errorf("op = %d", op)
			}
			if q := DecodeSelectEvents(r); q.Device != 3 || q.Mask != MaskAllEvents || r.Err != nil {
				t.Errorf("SelectEvents decode: %+v err %v", q, r.Err)
			}

			w.Reset()
			cr := CreateACReq{AC: 7, Device: 1, Mask: ACPlayGain | ACPreemption,
				Attrs: ACAttributes{PlayGain: -12, RecGain: 3, Preempt: 1, Endian: 1, Type: 2, Channels: 2}}
			if err := AppendCreateAC(w, cr); err != nil {
				t.Fatal(err)
			}
			op, _, r = parseHeader(t, o.order, w.Buf)
			if op != OpCreateAC {
				t.Errorf("op = %d", op)
			}
			if q := DecodeCreateAC(r); !reflect.DeepEqual(q, cr) || r.Err != nil {
				t.Errorf("CreateAC decode: %+v err %v", q, r.Err)
			}

			w.Reset()
			ch := ChangeACReq{AC: 7, Mask: ACRecordGain, Attrs: ACAttributes{RecGain: -6}}
			if err := AppendChangeAC(w, ch); err != nil {
				t.Fatal(err)
			}
			_, _, r = parseHeader(t, o.order, w.Buf)
			if q := DecodeChangeAC(r); !reflect.DeepEqual(q, ch) || r.Err != nil {
				t.Errorf("ChangeAC decode: %+v err %v", q, r.Err)
			}

			w.Reset()
			data := []byte{1, 2, 3, 4, 5} // odd length exercises padding
			pr := PlaySamplesReq{AC: 7, Time: 123456, Flags: SampleFlagSuppressReply, Data: data}
			if err := AppendPlaySamples(w, pr); err != nil {
				t.Fatal(err)
			}
			if len(w.Buf)%4 != 0 {
				t.Error("play request not padded")
			}
			op, ext, r := parseHeader(t, o.order, w.Buf)
			if op != OpPlaySamples || ext != SampleFlagSuppressReply {
				t.Errorf("op/ext = %d/%d", op, ext)
			}
			if q := DecodePlaySamples(r, ext); q.AC != 7 || q.Time != 123456 || !bytes.Equal(q.Data, data) || r.Err != nil {
				t.Errorf("PlaySamples decode: %+v err %v", q, r.Err)
			}

			w.Reset()
			rr := RecordSamplesReq{AC: 7, Time: 99, NBytes: 4096, Flags: SampleFlagNoBlock}
			if err := AppendRecordSamples(w, rr); err != nil {
				t.Fatal(err)
			}
			op, ext, r = parseHeader(t, o.order, w.Buf)
			if op != OpRecordSamples {
				t.Errorf("op = %d", op)
			}
			if q := DecodeRecordSamples(r, ext); !reflect.DeepEqual(q, rr) || r.Err != nil {
				t.Errorf("RecordSamples decode: %+v err %v", q, r.Err)
			}

			w.Reset()
			if err := AppendDeviceReq(w, OpGetTime, 2); err != nil {
				t.Fatal(err)
			}
			op, _, r = parseHeader(t, o.order, w.Buf)
			if op != OpGetTime || r.U32() != 2 || r.Err != nil {
				t.Error("GetTime decode failed")
			}

			w.Reset()
			if err := AppendGainReq(w, OpSetOutputGain, GainReq{Device: 1, Gain: -30}); err != nil {
				t.Fatal(err)
			}
			_, _, r = parseHeader(t, o.order, w.Buf)
			if q := DecodeGainReq(r); q.Device != 1 || q.Gain != -30 || r.Err != nil {
				t.Errorf("GainReq decode: %+v", q)
			}

			w.Reset()
			if err := AppendChangeHosts(w, ChangeHostsReq{Mode: HostInsert,
				Host: HostEntry{Family: FamilyInternet, Addr: []byte{10, 0, 0, 1}}}); err != nil {
				t.Fatal(err)
			}
			op, ext, r = parseHeader(t, o.order, w.Buf)
			if op != OpChangeHosts {
				t.Errorf("op = %d", op)
			}
			if q := DecodeChangeHosts(r, ext); q.Mode != HostInsert ||
				q.Host.Family != FamilyInternet || !bytes.Equal(q.Host.Addr, []byte{10, 0, 0, 1}) {
				t.Errorf("ChangeHosts decode: %+v", q)
			}

			w.Reset()
			if err := AppendInternAtom(w, InternAtomReq{OnlyIfExists: true, Name: "MY_ATOM"}); err != nil {
				t.Fatal(err)
			}
			op, ext, r = parseHeader(t, o.order, w.Buf)
			if op != OpInternAtom {
				t.Errorf("op = %d", op)
			}
			if q := DecodeInternAtom(r, ext); !q.OnlyIfExists || q.Name != "MY_ATOM" || r.Err != nil {
				t.Errorf("InternAtom decode: %+v err %v", q, r.Err)
			}

			w.Reset()
			cp := ChangePropertyReq{Device: 0, Property: AtomLastNumberDialed, Type: AtomSTRING,
				Format: 8, Mode: PropModeReplace, Data: []byte("6175551212")}
			if err := AppendChangeProperty(w, cp); err != nil {
				t.Fatal(err)
			}
			op, ext, r = parseHeader(t, o.order, w.Buf)
			if op != OpChangeProperty {
				t.Errorf("op = %d", op)
			}
			if q := DecodeChangeProperty(r, ext); q.Property != cp.Property || q.Type != cp.Type ||
				q.Format != 8 || !bytes.Equal(q.Data, cp.Data) || r.Err != nil {
				t.Errorf("ChangeProperty decode: %+v err %v", q, r.Err)
			}

			w.Reset()
			gp := GetPropertyReq{Device: 0, Property: AtomLastNumberDialed, Type: AtomNone, Delete: true}
			if err := AppendGetProperty(w, gp); err != nil {
				t.Fatal(err)
			}
			_, ext, r = parseHeader(t, o.order, w.Buf)
			if q := DecodeGetProperty(r, ext); !reflect.DeepEqual(q, gp) || r.Err != nil {
				t.Errorf("GetProperty decode: %+v err %v", q, r.Err)
			}

			w.Reset()
			if err := AppendQueryExtension(w, QueryExtensionReq{Name: "SHAPE"}); err != nil {
				t.Fatal(err)
			}
			_, _, r = parseHeader(t, o.order, w.Buf)
			if q := DecodeQueryExtension(r); q.Name != "SHAPE" || r.Err != nil {
				t.Errorf("QueryExtension decode: %+v err %v", q, r.Err)
			}

			w.Reset()
			if err := AppendEmptyReq(w, OpNoOperation, 0); err != nil {
				t.Fatal(err)
			}
			if len(w.Buf) != 4 {
				t.Errorf("NoOperation length = %d, want 4 (shortest possible request)", len(w.Buf))
			}
		})
	}
}

func TestMessageRoundTrips(t *testing.T) {
	for _, o := range orders {
		t.Run(o.name, func(t *testing.T) {
			w := &Writer{Order: o.order}
			rep := &Reply{Data: 5, Seq: 1000, Time: 0xDEADBEEF, Aux: 42, Extra: []byte{9, 8, 7, 6}}
			rep.Encode(w)
			em := &ErrorMsg{Code: ErrDevice, Seq: 1001, BadValue: 77, MajorOp: OpGetTime}
			w.Buf = em.Append(w.Buf, w.Order)
			ev := &Event{Code: EventPhoneDTMF, Detail: '5', Seq: 1001, Device: 0,
				Time: 12345, HostSec: 1000000, HostNsec: 500, Value: 3}
			w.Buf = ev.Append(w.Buf, w.Order)

			rd := bytes.NewReader(w.Buf)
			m, err := ReadMessage(rd, o.order)
			if err != nil || m.Reply == nil {
				t.Fatalf("reply: %v %+v", err, m)
			}
			if !reflect.DeepEqual(m.Reply, rep) {
				t.Errorf("reply round trip:\n got %+v\nwant %+v", m.Reply, rep)
			}
			m, err = ReadMessage(rd, o.order)
			if err != nil || m.Error == nil {
				t.Fatalf("error: %v %+v", err, m)
			}
			if !reflect.DeepEqual(m.Error, em) {
				t.Errorf("error round trip:\n got %+v\nwant %+v", m.Error, em)
			}
			m, err = ReadMessage(rd, o.order)
			if err != nil || m.Event == nil {
				t.Fatalf("event: %v %+v", err, m)
			}
			if !reflect.DeepEqual(m.Event, ev) {
				t.Errorf("event round trip:\n got %+v\nwant %+v", m.Event, ev)
			}
			if rd.Len() != 0 {
				t.Errorf("%d bytes left over", rd.Len())
			}
		})
	}
}

func TestErrorAndEventFixedSize(t *testing.T) {
	w := &Writer{Order: binary.LittleEndian}
	w.Buf = (&ErrorMsg{}).Append(w.Buf, w.Order)
	if len(w.Buf) != EventBytes {
		t.Errorf("error size = %d, want %d", len(w.Buf), EventBytes)
	}
	w.Reset()
	w.Buf = (&Event{Code: EventPhoneRing}).Append(w.Buf, w.Order)
	if len(w.Buf) != EventBytes {
		t.Errorf("event size = %d, want %d", len(w.Buf), EventBytes)
	}
	w.Reset()
	(&Reply{}).Encode(w)
	if len(w.Buf) != ReplyHeaderBytes {
		t.Errorf("bare reply size = %d, want %d", len(w.Buf), ReplyHeaderBytes)
	}
}

func TestHostListRoundTrip(t *testing.T) {
	hosts := []HostEntry{
		{Family: FamilyInternet, Addr: []byte{127, 0, 0, 1}},
		{Family: FamilyInternet6, Addr: bytes.Repeat([]byte{0xAB}, 16)},
		{Family: FamilyLocal, Addr: []byte("unix")},
	}
	for _, o := range orders {
		w := &Writer{Order: o.order}
		EncodeHostList(w, hosts)
		r := NewReader(o.order, w.Buf)
		got := DecodeHostList(r, uint32(len(hosts)))
		if r.Err != nil || !reflect.DeepEqual(got, hosts) {
			t.Errorf("%s: host list round trip: %+v err %v", o.name, got, r.Err)
		}
	}
}

func TestMaxRequestLength(t *testing.T) {
	// "The length field limits the longest request to 262144 bytes."
	w := &Writer{Order: binary.LittleEndian}
	big := make([]byte, MaxRequestBytes)
	err := AppendPlaySamples(w, PlaySamplesReq{Data: big})
	if err == nil {
		t.Error("oversized request did not error")
	}
	w.Reset()
	ok := make([]byte, MaxRequestBytes-16)
	if err := AppendPlaySamples(w, PlaySamplesReq{Data: ok}); err != nil {
		t.Errorf("max-size request errored: %v", err)
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader(binary.LittleEndian, []byte{1, 2})
	_ = r.U32() // overrun
	if r.Err == nil {
		t.Fatal("no error after overrun")
	}
	if v := r.U8(); v != 0 {
		t.Errorf("read after error = %d, want 0", v)
	}
	if b := r.BytesRef(1); b != nil {
		t.Error("BytesRef after error != nil")
	}
}

// TestString4PastEndReturns: a string that overruns the buffer from an
// unaligned position fails the reader and returns, padding skipped or not.
func TestString4PastEndReturns(t *testing.T) {
	r := NewReader(binary.LittleEndian, []byte{5, 'a', 'b', 'c'})
	done := make(chan string)
	go func() {
		n := int(r.U8())
		done <- r.String4(n)
	}()
	select {
	case s := <-done:
		if r.Err == nil || s != "" {
			t.Errorf("String4 past the end = %q, err %v; want \"\" and an error", s, r.Err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("String4 past the end did not return")
	}
}

// Property: any byte soup fed to ReadMessage either errors or yields
// exactly one well-formed message without panicking.
func TestQuickReadMessageNoPanic(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatal("ReadMessage panicked")
			}
		}()
		_, _ = ReadMessage(bytes.NewReader(data), binary.LittleEndian)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
