package aserver

import (
	"encoding/binary"
	"testing"

	"audiofile/internal/proto"
)

// TestEveryOpcodeHasARow: opTable states every opcode of the protocol and
// nothing else — each of 1…proto.MaxOpcode is either hot or has a handler,
// the hot rows are the three data-plane requests, a row that names a
// target has a first word to name it with, and a row's fixed length is
// what proto's encoder emits for that request with an empty variable tail.
// (That every opcode has a client call is TestEveryOpcodeHasACall, in af.)
func TestEveryOpcodeHasARow(t *testing.T) {
	// The encoder's word on each body, keyed by what it writes as opcode.
	empty := func(op uint8) func(*proto.Writer) error {
		return func(w *proto.Writer) error { return proto.AppendEmptyReq(w, op, 0) }
	}
	dev := func(op uint8) func(*proto.Writer) error {
		return func(w *proto.Writer) error { return proto.AppendDeviceReq(w, op, 0) }
	}
	gain := func(op uint8) func(*proto.Writer) error {
		return func(w *proto.Writer) error { return proto.AppendGainReq(w, op, proto.GainReq{}) }
	}
	mask := func(op uint8) func(*proto.Writer) error {
		return func(w *proto.Writer) error { return proto.AppendDeviceMaskReq(w, op, proto.DeviceMaskReq{}) }
	}
	encoders := []func(*proto.Writer) error{
		func(w *proto.Writer) error { return proto.AppendSelectEvents(w, proto.SelectEventsReq{}) },
		func(w *proto.Writer) error { return proto.AppendCreateAC(w, proto.CreateACReq{}) },
		func(w *proto.Writer) error { return proto.AppendChangeAC(w, proto.ChangeACReq{}) },
		func(w *proto.Writer) error { return proto.AppendFreeAC(w, 0) },
		func(w *proto.Writer) error { return proto.AppendPlaySamples(w, proto.PlaySamplesReq{}) },
		func(w *proto.Writer) error { return proto.AppendRecordSamples(w, proto.RecordSamplesReq{}) },
		dev(proto.OpGetTime), dev(proto.OpQueryPhone),
		func(w *proto.Writer) error { return proto.AppendEnablePassThrough(w, proto.PassThroughReq{}) },
		dev(proto.OpDisablePassThrough),
		func(w *proto.Writer) error { return proto.AppendHookSwitch(w, proto.HookSwitchReq{}) },
		func(w *proto.Writer) error { return proto.AppendFlashHook(w, proto.FlashHookReq{}) },
		empty(proto.OpEnableGainControl), empty(proto.OpDisableGainControl), empty(proto.OpDialPhone),
		gain(proto.OpSetInputGain), gain(proto.OpSetOutputGain),
		dev(proto.OpQueryInputGain), dev(proto.OpQueryOutputGain),
		mask(proto.OpEnableInput), mask(proto.OpEnableOutput), mask(proto.OpDisableInput), mask(proto.OpDisableOutput),
		func(w *proto.Writer) error { return proto.AppendSetAccessControl(w, true) },
		func(w *proto.Writer) error { return proto.AppendChangeHosts(w, proto.ChangeHostsReq{}) },
		empty(proto.OpListHosts),
		func(w *proto.Writer) error { return proto.AppendInternAtom(w, proto.InternAtomReq{}) },
		func(w *proto.Writer) error { return proto.AppendGetAtomName(w, 0) },
		func(w *proto.Writer) error { return proto.AppendChangeProperty(w, proto.ChangePropertyReq{}) },
		func(w *proto.Writer) error { return proto.AppendDeleteProperty(w, proto.DeletePropertyReq{}) },
		func(w *proto.Writer) error { return proto.AppendGetProperty(w, proto.GetPropertyReq{}) },
		dev(proto.OpListProperties),
		empty(proto.OpNoOperation), empty(proto.OpSyncConnection),
		func(w *proto.Writer) error { return proto.AppendQueryExtension(w, proto.QueryExtensionReq{}) },
		empty(proto.OpListExtensions), empty(proto.OpKillClient),
		func(w *proto.Writer) error { return proto.AppendSubscribe(w, 0) },
		func(w *proto.Writer) error { return proto.AppendUnsubscribe(w, 0) },
	}
	fixed := map[uint8]int{}
	for _, enc := range encoders {
		w := proto.Writer{Order: binary.LittleEndian}
		if err := enc(&w); err != nil {
			t.Fatal(err)
		}
		if _, twice := fixed[w.Buf[0]]; twice {
			t.Errorf("two encoders write opcode %d", w.Buf[0])
		}
		fixed[w.Buf[0]] = len(w.Buf) - 4
	}

	for op := range opTable {
		row, name := &opTable[op], proto.RequestName[uint8(op)]
		isRequest := op >= 1 && op <= proto.MaxOpcode
		switch {
		case !isRequest:
			if row.hot || row.handle != nil || row.fixed != 0 || row.target != noTarget {
				t.Errorf("opcode %d is not a request and has a row", op)
			}
			continue
		case row.hot == (row.handle != nil):
			t.Errorf("%s: hot %v, handler %v — a row is one or the other", name, row.hot, row.handle != nil)
		case row.hot != (op == proto.OpPlaySamples || op == proto.OpRecordSamples || op == proto.OpGetTime):
			t.Errorf("%s: hot %v; the data plane is PlaySamples, RecordSamples and GetTime", name, row.hot)
		}
		if want, ok := fixed[uint8(op)]; !ok {
			t.Errorf("%s: this test has no encoder for it", name)
		} else if row.fixed != want {
			t.Errorf("%s: fixed %d bytes, proto emits %d with an empty tail", name, row.fixed, want)
		}
		if row.target != noTarget && row.fixed < 4 {
			t.Errorf("%s: names a target in a body of %d fixed bytes", name, row.fixed)
		}
	}
}
