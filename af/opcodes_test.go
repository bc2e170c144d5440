package af

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"audiofile/aserver"
	"audiofile/internal/proto"
	"audiofile/internal/vdev"
)

// opRecorder counts the requests written to a connection, by opcode.
type opRecorder struct {
	net.Conn
	on   bool // off during connection setup
	buf  []byte
	seen [256]int
}

func (r *opRecorder) Write(b []byte) (int, error) {
	if r.on {
		r.buf = append(r.buf, b...)
		for len(r.buf) >= 4 {
			n := 4 * int(binary.LittleEndian.Uint16(r.buf[2:]))
			if n < 4 || n > len(r.buf) {
				break
			}
			r.seen[r.buf[0]]++
			r.buf = r.buf[n:]
		}
	}
	return r.Conn.Write(b)
}

// TestEveryOpcodeHasACall makes every kind of request the library can make,
// once, against a real server, and requires that every opcode of the
// protocol went out and that the library counted what the server counted:
// a request path that forgets to advance sentSeq waits for the wrong reply
// ever after. The four requests the library has no call for are sent
// through the one-way path by hand.
func TestEveryOpcodeHasACall(t *testing.T) {
	clk := vdev.NewManualClock(8000)
	srv, err := aserver.New(aserver.Options{
		Devices: []aserver.DeviceSpec{{Kind: "phone", Clock: clk}, {Kind: "codec", Clock: clk}},
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rec := &opRecorder{Conn: srv.DialPipe()}
	// A miscounted request would block its caller for good.
	rec.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	c, err := NewConn(rec)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec.on = true
	c.SetErrorHandler(func(*Conn, *ProtoError) {}) // DialPhone and KillClient are refused
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	raw := func(op uint8) {
		t.Helper()
		c.mu.Lock()
		defer c.mu.Unlock()
		must(c.oneWay(proto.AppendEmptyReq(&c.w, op, 0)))
	}

	must(c.SelectEvents(0, MaskAllEvents))
	ac, err := c.CreateAC(1, 0, ACAttributes{})
	must(err)
	must(ac.ChangeAttributes(ACPlayGain, ACAttributes{PlayGain: -3}))
	now, err := ac.GetTime()
	must(err)
	// One request through the copying play path, three through the
	// vectored one, three pipelined records: the calls that count for
	// themselves.
	_, err = ac.PlaySamples(now.Add(100), make([]byte, 64))
	must(err)
	_, err = ac.PlaySamples(now.Add(200), make([]byte, 2*proto.ChunkBytes+64))
	must(err)
	_, _, err = ac.RecordSamples(now, make([]byte, 2*proto.ChunkBytes+64), false)
	must(err)
	_, _, err = c.QueryPhone(0)
	must(err)
	must(c.EnablePassThrough(0, 1))
	must(c.DisablePassThrough(0))
	must(c.HookSwitch(0, true))
	must(c.FlashHook(0, 1))
	raw(proto.OpEnableGainControl)
	raw(proto.OpDisableGainControl)
	raw(proto.OpDialPhone)
	must(c.SetInputGain(1, 3))
	must(c.SetOutputGain(1, -3))
	_, _, _, err = c.QueryInputGain(1)
	must(err)
	_, _, _, err = c.QueryOutputGain(1)
	must(err)
	must(c.EnableInput(1, 1))
	must(c.EnableOutput(1, 1))
	must(c.DisableInput(1, 1))
	must(c.DisableOutput(1, 1))
	must(c.SetAccessControl(false))
	must(c.AddHost(HostEntry{Family: FamilyInternet, Addr: []byte{10, 0, 0, 1}}))
	_, _, err = c.ListHosts()
	must(err)
	atom, err := c.InternAtom("EVERY_OPCODE", false)
	must(err)
	_, err = c.GetAtomName(atom)
	must(err)
	must(c.ChangeProperty(1, atom, AtomSTRING, 8, PropModeReplace, []byte("x")))
	_, err = c.GetProperty(1, atom, AtomNone, false)
	must(err)
	_, err = c.ListProperties(1)
	must(err)
	must(c.DeleteProperty(1, atom))
	must(c.NoOp())
	must(c.Sync())
	_, err = c.QueryExtension("NONE")
	must(err)
	_, err = c.ListExtensions()
	must(err)
	raw(proto.OpKillClient)
	sub, _, err := ac.Subscribe()
	must(err)
	must(sub.Unsubscribe())
	must(ac.Free())
	must(c.Sync())

	for op := 1; op <= proto.MaxOpcode; op++ {
		if rec.seen[op] == 0 {
			t.Errorf("%s (opcode %d) was never sent", proto.RequestName[uint8(op)], op)
		}
	}
	if served := srv.Snapshot().Requests; uint64(c.sentSeq) != served {
		t.Errorf("the library counted %d requests, the server %d", c.sentSeq, served)
	}
}
