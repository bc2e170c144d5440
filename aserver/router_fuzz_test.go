package aserver

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"testing"
	"time"

	"audiofile/internal/proto"
	"audiofile/internal/vdev"
)

// FuzzRouterSetup feeds arbitrary bytes to the router as a client's
// setup over Router.DialPipe. Whatever arrives, the router must not
// panic. A complete setup request draws exactly one setup reply: the
// backend's, spliced, or the router's own refusal, and never a redirect,
// which a pipe client cannot follow. Anything less draws none. Once the
// conn is gone the setup law and the route law hold exactly.
func FuzzRouterSetup(f *testing.F) {
	const vendor = "fuzz backend"
	srv, err := New(Options{
		Devices: []DeviceSpec{{Kind: "codec", Clock: vdev.NewManualClock(8000)}},
		Vendor:  vendor,
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	l, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	r, err := NewRouter(RouterOptions{Backends: []string{l.Addr().String()}, ProbeInterval: time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(r.Close)

	seed := func(s proto.SetupRequest, trailer ...byte) {
		var buf bytes.Buffer
		s.Send(&buf) //nolint:errcheck — a bytes.Buffer
		f.Add(append(buf.Bytes(), trailer...))
	}
	s := proto.SetupRequest{ByteOrder: proto.LittleEndianOrder, Major: proto.ProtocolMajor, Minor: proto.ProtocolMinor}
	seed(s)
	w := proto.Writer{Order: binary.LittleEndian}
	proto.AppendDeviceReq(&w, proto.OpGetTime, 0) //nolint:errcheck
	seed(s, w.Buf...)                             // a request spliced behind the setup
	s.AuthName, s.AuthData = proto.RouteAuthName, []byte("studio")
	seed(s)
	s.AuthName = proto.RouteDirectAuthName
	seed(s)
	s.ByteOrder = proto.BigEndianOrder
	seed(s)
	s.Major++
	seed(s) // refused by the backend, spliced through
	f.Add([]byte{})
	f.Add([]byte{proto.LittleEndianOrder, 0, 2, 0})                         // truncated header
	f.Add([]byte{'x', 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0})                     // bad byte order
	f.Add([]byte{proto.LittleEndianOrder, 0, 2, 0, 0, 0, 4, 0, 0, 0, 0, 0}) // auth name missing

	f.Fuzz(func(t *testing.T, data []byte) {
		nc := r.DialPipe()
		go nc.Write(data) //nolint:errcheck — the router may stop reading at any byte
		_, order, perr := proto.ReadSetupRequest(bytes.NewReader(data))
		if perr == nil {
			nc.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
			rep, err := proto.ReadSetupReply(nc, order)
			switch {
			case err != nil:
				t.Fatalf("a complete setup drew no setup reply: %v", err)
			case rep.Redirect():
				t.Fatalf("a pipe client was redirected to %s %s", rep.RedirectNetwork, rep.RedirectAddr)
			case rep.Success && rep.Vendor != vendor:
				t.Fatalf("a success from %q, not the backend", rep.Vendor)
			case !rep.Success:
				// A refusal closes the session: nothing follows it.
				if n, err := nc.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
					t.Fatalf("%d bytes (%v) after a refusal", n, err)
				}
			}
		} else {
			// Incomplete or malformed: the router waits for more, or hangs
			// up, but never answers.
			nc.SetReadDeadline(time.Now().Add(5 * time.Millisecond)) //nolint:errcheck
			if n, err := nc.Read(make([]byte, 1)); n != 0 || !(errors.Is(err, io.EOF) || errors.Is(err, os.ErrDeadlineExceeded)) {
				t.Fatalf("%d bytes (%v) in answer to an incomplete setup", n, err)
			}
		}
		nc.Close()
		waitFor(t, "the router to drain with its laws exact", func() bool {
			s := r.Snapshot()
			return s.SessionsActive == 0 && s.Check(true) == nil
		})
		if n := r.Snapshot().Redirects; n != 0 {
			t.Fatalf("%d redirects over pipes", n)
		}
	})
}
