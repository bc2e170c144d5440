package aserver

import (
	"errors"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/internal/lineserver"
	"audiofile/internal/proto"
)

func TestAtomTable(t *testing.T) {
	at := newAtomTable()
	// Built-ins resolve both ways.
	if at.intern("STRING", true) != proto.AtomSTRING {
		t.Error("STRING not predefined")
	}
	if at.name(proto.AtomTELEPHONE) != "TELEPHONE" {
		t.Error("TELEPHONE name wrong")
	}
	// New atoms allocate past the predefined range and are stable.
	a := at.intern("FOO", false)
	if a <= proto.AtomLastPredefined {
		t.Errorf("new atom id %d overlaps predefined", a)
	}
	if at.intern("FOO", false) != a || at.intern("FOO", true) != a {
		t.Error("re-intern changed id")
	}
	if at.name(a) != "FOO" {
		t.Errorf("name(FOO) = %q", at.name(a))
	}
	// onlyIfExists misses return None.
	if at.intern("MISSING", true) != proto.AtomNone {
		t.Error("onlyIfExists allocated")
	}
	// Validity.
	if at.valid(0) || at.valid(99999) {
		t.Error("invalid ids reported valid")
	}
	if !at.valid(a) {
		t.Error("real id reported invalid")
	}
	if at.name(99999) != "" {
		t.Error("unknown id has a name")
	}
}

func TestHostEntryFor(t *testing.T) {
	tcp4 := &net.TCPAddr{IP: net.IPv4(10, 1, 2, 3), Port: 1234}
	e := hostEntryFor(tcp4)
	if e.Family != proto.FamilyInternet || len(e.Addr) != 4 {
		t.Errorf("v4 entry = %+v", e)
	}
	tcp6 := &net.TCPAddr{IP: net.ParseIP("2001:db8::1"), Port: 1}
	e = hostEntryFor(tcp6)
	if e.Family != proto.FamilyInternet6 || len(e.Addr) != 16 {
		t.Errorf("v6 entry = %+v", e)
	}
	unix := &net.UnixAddr{Name: "/tmp/x", Net: "unix"}
	e = hostEntryFor(unix)
	if e.Family != proto.FamilyLocal {
		t.Errorf("unix entry = %+v", e)
	}
}

func TestDeviceBuildErrors(t *testing.T) {
	if _, err := New(Options{Devices: []DeviceSpec{{Kind: "theremin"}},
		Logf: t.Logf}); err == nil {
		t.Error("unknown device kind accepted")
	}
	if _, err := New(Options{Devices: []DeviceSpec{},
		Logf: t.Logf}); err == nil {
		t.Error("empty device list accepted")
	}
}

// TestFailedNewClosesBackends: a spec that fails after a LineServer
// backend was dialed must not strand that backend's socket and health
// goroutine.
func TestFailedNewClosesBackends(t *testing.T) {
	fw, err := lineserver.NewFirmware(lineserver.FirmwareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	before := runtime.NumGoroutine()
	if _, err := New(Options{Logf: t.Logf, Devices: []DeviceSpec{
		{Kind: "lineserver", Addr: fw.Addr()},
		{Kind: "bogus"},
	}}); err == nil {
		t.Fatal("unknown device kind accepted")
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the failed New, %d before", n, before)
	}
}

func TestDefaultDeviceComplement(t *testing.T) {
	srv, err := New(Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// phone0, codec0, hifi0, hifi0L, hifi0R — the Alofi arrangement.
	if srv.NumDevices() != 5 {
		t.Fatalf("NumDevices = %d, want 5", srv.NumDevices())
	}
	if srv.PhoneLine(0) == nil || srv.PhoneLine(1) != nil {
		t.Error("phone line wiring wrong")
	}
	if srv.PhoneLine(-1) != nil || srv.PhoneLine(srv.NumDevices()) != nil {
		t.Error("a device index out of range has a phone line")
	}
	if srv.Device(3).Backend() != srv.Device(2).Backend() {
		t.Error("mono view does not share the stereo hardware")
	}
	if srv.Device(2).Cfg.Channels != 2 || srv.Device(3).Cfg.Channels != 1 {
		t.Error("channel counts wrong")
	}
}

// TestTopDeviceNumberRefused: device 0xFFFFFFFF is refused with
// ErrDevice. As an int on a 32-bit platform it is negative, and a bounds
// check made in int passed it on to index the devices.
func TestTopDeviceNumberRefused(t *testing.T) {
	srv, err := New(Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := af.NewConn(srv.DialPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var pe *af.ProtoError
	if _, err := c.GetTime(-1); !errors.As(err, &pe) || pe.Code != proto.ErrDevice {
		t.Errorf("GetTime(0xFFFFFFFF) = %v, want ErrDevice", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	srv, err := New(Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close() // must not panic or hang
}

func TestDoAfterClose(t *testing.T) {
	srv, err := New(Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	ran := false
	srv.Do(func() { ran = true }) // must return, not deadlock
	if ran {
		t.Error("Do ran after close")
	}
}

// TestUseAfterClose: a closed Server or Router takes no connection.
// Listen closes what it bound and fails, so a dial is refused rather
// than left hanging; Serve fails; a pipe conn reads EOF.
func TestUseAfterClose(t *testing.T) {
	srv := optionServer(t, Options{})
	r := testRouter(t, RouterOptions{Backends: []string{deadBackend(t)}, ProbeInterval: time.Hour})
	for _, tc := range []struct {
		name  string
		close func()
		door  interface {
			Listen(network, addr string) (net.Listener, error)
			Serve(l net.Listener) error
			DialPipe() net.Conn
		}
	}{
		{"server", srv.Close, srv},
		{"router", r.Close, r},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.close()
			addr := filepath.Join(t.TempDir(), "af")
			if l, err := tc.door.Listen("unix", addr); err == nil {
				l.Close()
				t.Error("Listen after Close succeeded")
			}
			if c, err := net.Dial("unix", addr); err == nil {
				c.Close()
				t.Error("a dial to the address Listen asked for connected")
			}
			l, err := net.Listen("unix", filepath.Join(t.TempDir(), "serve"))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if err := tc.door.Serve(l); err == nil {
				t.Error("Serve after Close returned nil")
			}
			nc := tc.door.DialPipe()
			defer nc.Close()
			nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
			if n, err := nc.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
				t.Errorf("a pipe conn after Close read %d bytes, %v; want EOF", n, err)
			}
		})
	}
}
