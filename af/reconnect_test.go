package af_test

// Reconnect tests: kill the server under a live connection, restart it
// on the same address, and hold the library to its reconnection
// contract — idempotent operations retry transparently, streaming
// operations surface a typed ReconnectedError after the session is
// rebuilt (audio contexts replayed verbatim), and a server that closes
// the session deliberately (Drain) surfaces a typed ServerClosedError.

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/internal/proto"
	"audiofile/internal/rig"
	"audiofile/internal/vdev"
)

// startServer serves one codec device on a unix socket at path,
// retrying the bind briefly in case a just-closed predecessor has not
// yet released the address.
func startServer(t *testing.T, path string) *aserver.Server {
	t.Helper()
	srv, err := aserver.New(aserver.Options{
		Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Clock: vdev.NewManualClock(8000)}},
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err = srv.Listen("unix", path)
		if err == nil {
			return srv
		}
		if time.Now().After(deadline) {
			srv.Close()
			t.Fatalf("listen %s: %v", path, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestReconnectGetTimeTransparent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "AFsock")
	srv1 := startServer(t, path)
	conn, err := af.Open("unix:" + path)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetIOErrorHandler(func(*af.Conn, error) {})
	resyncs := 0
	if err := conn.SetReconnect(af.ReconnectOptions{
		OnResync: func(*af.Conn) { resyncs++ },
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.GetTime(0); err != nil {
		t.Fatalf("GetTime before restart: %v", err)
	}

	srv1.Close()
	srv2 := startServer(t, path)
	defer srv2.Close()

	// GetTime is idempotent: the transport failure must be absorbed by a
	// redial and a transparent retry on the rebuilt session.
	if _, err := conn.GetTime(0); err != nil {
		t.Fatalf("GetTime across restart: %v", err)
	}
	if resyncs != 1 {
		t.Errorf("OnResync fired %d times, want 1", resyncs)
	}
	// The rebuilt session stays healthy.
	if err := conn.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestReconnectStreamingReturnsTypedError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "AFsock")
	srv1 := startServer(t, path)
	conn, err := af.Open("unix:" + path)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetIOErrorHandler(func(*af.Conn, error) {})
	resyncs := 0
	if err := conn.SetReconnect(af.ReconnectOptions{
		OnResync: func(*af.Conn) { resyncs++ },
	}); err != nil {
		t.Fatal(err)
	}
	ac, err := conn.CreateAC(0, 0, af.ACAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 512)
	now, err := ac.GetTime()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ac.PlaySamples(now.Add(256), data); err != nil {
		t.Fatalf("play before restart: %v", err)
	}

	srv1.Close()
	srv2 := startServer(t, path)
	defer srv2.Close()

	// A streaming operation must NOT retry transparently — the device
	// time base moved across the restart — but it must reconnect and say
	// so with a typed error the caller can branch on.
	_, err = ac.PlaySamples(now.Add(512), data)
	var re *af.ReconnectedError
	if !errors.As(err, &re) {
		t.Fatalf("play across restart: got %v, want ReconnectedError", err)
	}
	if resyncs != 1 {
		t.Errorf("OnResync fired %d times, want 1", resyncs)
	}

	// The context was replayed during the reconnect: after resyncing
	// device time, the same AC plays on the new server without any
	// client-side re-setup.
	now, err = ac.GetTime()
	if err != nil {
		t.Fatalf("resync GetTime: %v", err)
	}
	if _, err := ac.PlaySamples(now.Add(256), data); err != nil {
		t.Fatalf("play after reconnect: %v", err)
	}
	if err := conn.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestReconnectFailsWhenServerStaysDown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "AFsock")
	srv := startServer(t, path)
	conn, err := af.Open("unix:" + path)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetIOErrorHandler(func(*af.Conn, error) {})
	if err := conn.SetReconnect(af.ReconnectOptions{
		MaxAttempts: 2,
		Backoff:     time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// No replacement server: the retries must exhaust and the original
	// transport error must come back, not a reconnect artifact.
	if _, err := conn.GetTime(0); err == nil {
		t.Fatal("GetTime succeeded with no server")
	}
	var re *af.ReconnectedError
	if errors.As(err, &re) {
		t.Fatalf("got ReconnectedError %v with no server to reconnect to", err)
	}
}

func TestServerClosedErrorOnDrain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "AFsock")
	srv := startServer(t, path)
	defer srv.Close()
	conn, err := af.Open("unix:" + path)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetIOErrorHandler(func(*af.Conn, error) {})
	if _, err := conn.GetTime(0); err != nil {
		t.Fatal(err)
	}

	// Drain sends the typed goodbye (Drain) and closes the transport.
	srv.Drain(time.Second)

	// The next read finds the goodbye, then the close; the library must
	// fold both into one typed error naming the server's reason.
	_, err = conn.Pending()
	var sce *af.ServerClosedError
	if !errors.As(err, &sce) {
		t.Fatalf("got %v, want ServerClosedError", err)
	}
	if sce.Code != proto.ErrDrain {
		t.Errorf("close code %d, want ErrDrain (%d)", sce.Code, proto.ErrDrain)
	}
}

func TestSetReconnectRequiresRedialForCustomTransport(t *testing.T) {
	srv := rig.Server(t, aserver.Options{
		Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Clock: vdev.NewManualClock(8000)}},
	})
	conn, err := af.NewConn(srv.DialPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A pipe connection has no address to redial; the library must say
	// so rather than silently disabling reconnection.
	if err := conn.SetReconnect(af.ReconnectOptions{}); err == nil {
		t.Fatal("SetReconnect accepted a connection with no redial target")
	}
}
