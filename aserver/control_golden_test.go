package aserver

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"audiofile/internal/proto"
	"audiofile/internal/sampleconv"
	"audiofile/internal/vdev"
)

// The control golden: what every control opcode answers — sent valid, with
// a first word that names nothing, and one word short — pinned to bytes in
// both wire orders. One line of testdata/control_golden/<order>.golden per
// request: its sequence number, what it was, and every message that carried
// that sequence number back, in hex ("-" when the request drew nothing).
// The hot opcodes have a golden of their own (TestHotPathGolden).

var updateControlGolden = flag.Bool("update-control-golden", false,
	"rewrite testdata/control_golden from what the server answers")

// goldenStep is one request of the script. A step named by its bare opcode
// is the one that is also sent one word short, if it has a body, and — when
// target says its first word names a device or an audio context — naming
// nothing; the steps named with more words are that opcode's other answers.
type goldenStep struct {
	name   string
	target bool
	req    func(w *proto.Writer) error
}

// controlGoldenScript is the fixed script, against a phone (device 0) and
// a codec (device 1). prop is the first atom the script interns.
func controlGoldenScript() []goldenStep {
	prop := uint32(len(proto.BuiltinAtomNames))
	dev := func(op uint8, d uint32) func(*proto.Writer) error {
		return func(w *proto.Writer) error { return proto.AppendDeviceReq(w, op, d) }
	}
	empty := func(op, ext uint8) func(*proto.Writer) error {
		return func(w *proto.Writer) error { return proto.AppendEmptyReq(w, op, ext) }
	}
	gain := func(op uint8, g int32) func(*proto.Writer) error {
		return func(w *proto.Writer) error { return proto.AppendGainReq(w, op, proto.GainReq{Device: 1, Gain: g}) }
	}
	mask := func(op uint8) func(*proto.Writer) error {
		return func(w *proto.Writer) error {
			return proto.AppendDeviceMaskReq(w, op, proto.DeviceMaskReq{Device: 1, Mask: 1})
		}
	}
	createAC := func(q proto.CreateACReq) func(*proto.Writer) error {
		return func(w *proto.Writer) error { return proto.AppendCreateAC(w, q) }
	}
	changeAC := func(q proto.ChangeACReq) func(*proto.Writer) error {
		return func(w *proto.Writer) error { return proto.AppendChangeAC(w, q) }
	}
	hook := func(d uint32, state uint8) func(*proto.Writer) error {
		return func(w *proto.Writer) error {
			return proto.AppendHookSwitch(w, proto.HookSwitchReq{Device: d, State: state})
		}
	}
	flash := func(ms uint32) func(*proto.Writer) error {
		return func(w *proto.Writer) error {
			return proto.AppendFlashHook(w, proto.FlashHookReq{Device: 0, DurationMs: ms})
		}
	}
	patch := func(a, b uint32) func(*proto.Writer) error {
		return func(w *proto.Writer) error {
			return proto.AppendEnablePassThrough(w, proto.PassThroughReq{Device: a, Other: b})
		}
	}
	host := func(mode uint8) func(*proto.Writer) error {
		return func(w *proto.Writer) error {
			return proto.AppendChangeHosts(w, proto.ChangeHostsReq{Mode: mode,
				Host: proto.HostEntry{Family: proto.FamilyInternet, Addr: []byte{10, 0, 0, 1}}})
		}
	}
	intern := func(name string, onlyIfExists bool) func(*proto.Writer) error {
		return func(w *proto.Writer) error {
			return proto.AppendInternAtom(w, proto.InternAtomReq{Name: name, OnlyIfExists: onlyIfExists})
		}
	}
	atomName := func(a uint32) func(*proto.Writer) error {
		return func(w *proto.Writer) error { return proto.AppendGetAtomName(w, a) }
	}
	change := func(q proto.ChangePropertyReq) func(*proto.Writer) error {
		q.Device = 1
		return func(w *proto.Writer) error { return proto.AppendChangeProperty(w, q) }
	}
	get := func(q proto.GetPropertyReq) func(*proto.Writer) error {
		q.Device = 1
		return func(w *proto.Writer) error { return proto.AppendGetProperty(w, q) }
	}
	del := func(p uint32) func(*proto.Writer) error {
		return func(w *proto.Writer) error {
			return proto.AppendDeleteProperty(w, proto.DeletePropertyReq{Device: 1, Property: p})
		}
	}
	acReq := func(fn func(*proto.Writer, uint32) error, id uint32) func(*proto.Writer) error {
		return func(w *proto.Writer) error { return fn(w, id) }
	}
	str8 := proto.ChangePropertyReq{Property: prop, Type: proto.AtomSTRING, Format: 8}
	with := func(q proto.ChangePropertyReq, mode uint8, data string) proto.ChangePropertyReq {
		q.Mode, q.Data = mode, []byte(data)
		return q
	}
	return []goldenStep{
		{"SelectEvents", true, func(w *proto.Writer) error {
			return proto.AppendSelectEvents(w, proto.SelectEventsReq{Device: 0, Mask: proto.EventMaskFor(proto.EventPhoneRing)})
		}},

		// Audio contexts: 1 is plain, 2 compressed.
		{"CreateAC", false, createAC(proto.CreateACReq{AC: 1, Device: 1})},
		{"CreateAC no such device", false, createAC(proto.CreateACReq{AC: 3, Device: 0xee})},
		{"CreateAC id in use", false, createAC(proto.CreateACReq{AC: 1, Device: 1})},
		{"CreateAC bad encoding", false, createAC(proto.CreateACReq{AC: 3, Device: 1,
			Mask: proto.ACEncoding, Attrs: proto.ACAttributes{Type: 0x7f}})},
		{"CreateAC wrong channels", false, createAC(proto.CreateACReq{AC: 3, Device: 1,
			Mask: proto.ACChannels, Attrs: proto.ACAttributes{Channels: 2}})},
		{"CreateAC compressed", false, createAC(proto.CreateACReq{AC: 2, Device: 1,
			Mask: proto.ACEncoding, Attrs: proto.ACAttributes{Type: uint8(sampleconv.ADPCM4)}})},
		{"ChangeACAttributes", true, changeAC(proto.ChangeACReq{AC: 1,
			Mask:  proto.ACPlayGain | proto.ACRecordGain | proto.ACPreemption,
			Attrs: proto.ACAttributes{PlayGain: -3, RecGain: 4, Preempt: 1}})},
		// A compressed context cannot subscribe: the Subscribe below shows
		// whether this failed change left context 1 compressed.
		{"ChangeACAttributes good encoding, wrong channels", false, changeAC(proto.ChangeACReq{AC: 1,
			Mask:  proto.ACEncoding | proto.ACChannels,
			Attrs: proto.ACAttributes{Type: uint8(sampleconv.ADPCM4), Channels: 2}})},
		{"Subscribe", true, acReq(proto.AppendSubscribe, 1)},
		{"Subscribe twice", false, acReq(proto.AppendSubscribe, 1)},
		{"Unsubscribe", true, acReq(proto.AppendUnsubscribe, 1)},
		{"Subscribe compressed", false, acReq(proto.AppendSubscribe, 2)},
		{"FreeAC", true, acReq(proto.AppendFreeAC, 2)},

		// Telephony. Device 1 exists but has no line.
		{"QueryPhone", true, dev(proto.OpQueryPhone, 0)},
		{"QueryPhone not a phone", false, dev(proto.OpQueryPhone, 1)},
		{"FlashHook on hook", false, flash(0)},
		{"HookSwitch", true, hook(0, proto.HookOff)},
		{"HookSwitch not a phone", false, hook(1, proto.HookOff)},
		{"QueryPhone off hook", false, dev(proto.OpQueryPhone, 0)},
		{"FlashHook for 49 days", false, flash(0xffffffff)},
		{"HookSwitch off again", false, hook(0, proto.HookOff)},
		// Two seconds: long enough that the script is over before the
		// re-hook, so the QueryPhone behind it always lands mid-flash.
		{"FlashHook", true, flash(2000)},
		{"FlashHook not a phone", false, func(w *proto.Writer) error {
			return proto.AppendFlashHook(w, proto.FlashHookReq{Device: 1})
		}},
		{"QueryPhone mid-flash", false, dev(proto.OpQueryPhone, 0)},
		{"HookSwitch hang up", false, hook(0, proto.HookOn)},

		{"EnablePassThrough", true, patch(0, 1)},
		{"EnablePassThrough no such peer", false, patch(0, 0xee)},
		{"EnablePassThrough to itself", false, patch(0, 0)},
		{"DisablePassThrough", true, dev(proto.OpDisablePassThrough, 0)},
		{"EnableGainControl", false, empty(proto.OpEnableGainControl, 0)},
		{"DisableGainControl", false, empty(proto.OpDisableGainControl, 0)},
		{"DialPhone", false, empty(proto.OpDialPhone, 0)},

		{"SetInputGain", true, gain(proto.OpSetInputGain, 5)},
		{"SetInputGain too high", false, gain(proto.OpSetInputGain, maxDeviceGain+1)},
		{"SetOutputGain", true, gain(proto.OpSetOutputGain, -7)},
		{"SetOutputGain too low", false, gain(proto.OpSetOutputGain, minDeviceGain-1)},
		{"QueryInputGain", true, dev(proto.OpQueryInputGain, 1)},
		{"QueryOutputGain", true, dev(proto.OpQueryOutputGain, 1)},
		{"EnableInput", true, mask(proto.OpEnableInput)},
		{"EnableOutput", true, mask(proto.OpEnableOutput)},
		{"DisableInput", true, mask(proto.OpDisableInput)},
		{"DisableOutput", true, mask(proto.OpDisableOutput)},

		{"SetAccessControl on", false, empty(proto.OpSetAccessControl, 1)},
		{"ChangeHosts", false, host(proto.HostInsert)},
		{"ChangeHosts same host again", false, host(proto.HostInsert)},
		{"ListHosts", false, empty(proto.OpListHosts, 0)},
		{"ChangeHosts delete", false, host(proto.HostDelete)},
		{"SetAccessControl off", false, empty(proto.OpSetAccessControl, 0)},
		{"ListHosts after delete", false, empty(proto.OpListHosts, 0)},

		{"InternAtom", false, intern("GOLDEN_PROP", false)},
		{"InternAtom again", false, intern("GOLDEN_PROP", false)},
		{"InternAtom second", false, intern("GOLDEN_OTHER", false)},
		{"InternAtom only if exists", false, intern("GOLDEN_NONE", true)},
		{"GetAtomName", false, atomName(proto.AtomSTRING)},
		{"GetAtomName interned", false, atomName(prop)},
		{"GetAtomName no such atom", false, atomName(9999)},

		{"ChangeProperty", true, change(with(str8, proto.PropModeReplace, "kept"))},
		{"ChangeProperty append", false, change(with(str8, proto.PropModeAppend, " more"))},
		{"ChangeProperty prepend", false, change(with(str8, proto.PropModePrepend, "is "))},
		{"ChangeProperty no such atom", false, change(proto.ChangePropertyReq{Property: 9999, Type: proto.AtomSTRING, Format: 8})},
		{"ChangeProperty no such type", false, change(proto.ChangePropertyReq{Property: prop, Type: 9999, Format: 8})},
		{"ChangeProperty bad format", false, change(proto.ChangePropertyReq{Property: prop, Type: proto.AtomSTRING, Format: 7})},
		{"ChangeProperty bad mode", false, change(with(str8, 9, "x"))},
		{"ChangeProperty append of another type", false, change(proto.ChangePropertyReq{Property: prop,
			Type: proto.AtomINTEGER, Format: 32, Mode: proto.PropModeAppend, Data: []byte{1, 2, 3, 4}})},
		{"GetProperty", true, get(proto.GetPropertyReq{Property: prop})},
		{"GetProperty of its type", false, get(proto.GetPropertyReq{Property: prop, Type: proto.AtomSTRING})},
		{"GetProperty of another type", false, get(proto.GetPropertyReq{Property: prop, Type: proto.AtomINTEGER})},
		{"GetProperty not set", false, get(proto.GetPropertyReq{Property: prop + 1})},
		{"GetProperty no such atom", false, get(proto.GetPropertyReq{Property: 9999})},
		{"ListProperties", true, dev(proto.OpListProperties, 1)},
		{"ListProperties none", false, dev(proto.OpListProperties, 0)},
		{"DeleteProperty not set", false, del(prop + 1)},
		{"DeleteProperty no such atom", false, del(9999)},
		{"GetProperty and delete", false, get(proto.GetPropertyReq{Property: prop, Delete: true})},
		{"ChangeProperty back", false, change(with(str8, proto.PropModeReplace, "again"))},
		{"DeleteProperty", true, del(prop)},
		{"ListProperties after delete", false, dev(proto.OpListProperties, 1)},

		{"NoOperation", false, empty(proto.OpNoOperation, 0)},
		{"SyncConnection", false, empty(proto.OpSyncConnection, 0)},
		{"QueryExtension", false, func(w *proto.Writer) error {
			return proto.AppendQueryExtension(w, proto.QueryExtensionReq{Name: "NONE"})
		}},
		{"ListExtensions", false, empty(proto.OpListExtensions, 0)},
		{"KillClient", false, empty(proto.OpKillClient, 0)},
		{"FreeAC last context", false, acReq(proto.AppendFreeAC, 1)},
		{"opcode 0", false, empty(0, 0)},
		{"opcode past the last", false, empty(proto.MaxOpcode+1, 0)},
		{"opcode 255", false, empty(255, 0)},
		// Three properties, not set in atom order: the list is ascending.
		{"ChangeProperty on atom 20", false, change(proto.ChangePropertyReq{Property: proto.AtomLastNumberDialed,
			Type: proto.AtomSTRING, Format: 8, Data: []byte("5551212")})},
		{"ChangeProperty on atom 21", false, change(with(str8, proto.PropModeReplace, "kept"))},
		{"ChangeProperty on atom 10", false, change(proto.ChangePropertyReq{Property: proto.AtomCOPYRIGHT,
			Type: proto.AtomSTRING, Format: 8, Data: []byte("1993")})},
		{"ListProperties of three", false, dev(proto.OpListProperties, 1)},
		{"SyncConnection at the end", false, empty(proto.OpSyncConnection, 0)},
	}
}

// controlGoldenStream marshals the script in the given order — a bare step
// preceded by its one-word-short and names-nothing variants, which must
// change nothing — and returns the request stream and each request's name.
func controlGoldenStream(t testing.TB, order binary.ByteOrder) (stream []byte, names []string) {
	t.Helper()
	for _, st := range controlGoldenScript() {
		w := proto.Writer{Order: order}
		if err := st.req(&w); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		whole := w.Buf
		bare := !strings.Contains(st.name, " ")
		if bare && len(whole) > 4 {
			short := append([]byte(nil), whole[:len(whole)-4]...)
			order.PutUint16(short[2:], uint16(len(short)/4))
			stream, names = append(stream, short...), append(names, st.name+", one word short")
		}
		if bare && st.target {
			bad := append([]byte(nil), whole...)
			order.PutUint32(bad[4:], 0xee)
			stream, names = append(stream, bad...), append(names, st.name+", first word names nothing")
		}
		stream, names = append(stream, whole...), append(names, st.name)
	}
	return stream, names
}

// TestControlGolden runs the script once per wire order against a fresh
// server whose clocks stand still meanwhile, and compares the whole reply stream,
// attributed to requests by sequence number, with the committed golden.
func TestControlGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		order binary.ByteOrder
	}{
		{"little", binary.LittleEndian},
		{"big", binary.BigEndian},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := vdev.NewManualClock(8000)
			srv, err := New(Options{
				Devices: []DeviceSpec{{Kind: "phone", Clock: clk}, {Kind: "codec", Clock: clk}},
				Logf:    func(string, ...any) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			clk.Advance(4096) // so a reply's Time field is not all zeros
			srv.Sync()
			nc := srv.DialPipe()
			defer nc.Close()
			if rep, err := proto.Setup(nc, nc, tc.order, "", nil); err != nil {
				t.Fatalf("setup: %v %+v", err, rep)
			}
			stream, names := controlGoldenStream(t, tc.order)
			go nc.Write(stream) //nolint:errcheck — a pipe: the replies must be read meanwhile

			// Every message carries the sequence number of the request that
			// drew it; the last request is a SyncConnection, so its reply
			// ends the stream.
			drew := make([][]byte, len(names)+1)
			br := bufio.NewReader(nc)
			for last := uint16(len(names)); ; {
				kind, err := br.Peek(1)
				if err != nil {
					t.Fatal(err)
				}
				msg := make([]byte, proto.EventBytes)
				if kind[0] == proto.MsgReply {
					msg = msg[:proto.ReplyHeaderBytes]
				} else if kind[0] != proto.MsgError {
					t.Fatalf("message kind %d: the script selects no event that occurs", kind[0])
				}
				if _, err := io.ReadFull(br, msg); err != nil {
					t.Fatal(err)
				}
				if kind[0] == proto.MsgReply {
					extra := make([]byte, 4*tc.order.Uint32(msg[4:]))
					if _, err := io.ReadFull(br, extra); err != nil {
						t.Fatal(err)
					}
					msg = append(msg, extra...)
				}
				seq := tc.order.Uint16(msg[2:])
				if seq == 0 || int(seq) > len(names) {
					t.Fatalf("message for sequence number %d of %d: %x", seq, len(names), msg)
				}
				drew[seq] = append(drew[seq], msg...)
				if seq == last {
					break
				}
			}
			var got bytes.Buffer
			for i, name := range names {
				if msgs := drew[i+1]; len(msgs) == 0 {
					fmt.Fprintf(&got, "%03d %s: -\n", i+1, name)
				} else {
					fmt.Fprintf(&got, "%03d %s: %x\n", i+1, name, msgs)
				}
			}
			path := filepath.Join("testdata", "control_golden", tc.name+".golden")
			if *updateControlGolden {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := 0; i < len(gl) || i < len(wl); i++ {
				var g, w []byte
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if !bytes.Equal(g, w) {
					t.Errorf("line %d differs from %s:\ngot  %s\nwant %s", i+1, path, g, w)
				}
			}
		})
	}
}
