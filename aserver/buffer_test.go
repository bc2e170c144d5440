package aserver

import (
	"math"
	"strings"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/internal/vdev"
)

// TestBufSecondsChecked: New refuses, naming the device, a BufSeconds
// with which no play could land — not a finite, non-negative number, a
// ring no larger than the hardware window, a ring of 2^31 frames or more
// — and closes the devices it built before it. A codec at 0 (4 s), at 1 s
// (apbx's) and at the smallest depth accepted each complete a play that
// reaches past the horizon.
func TestBufSecondsChecked(t *testing.T) {
	for _, bad := range []struct {
		kind string
		secs float64
	}{
		{"codec", math.NaN()},
		{"codec", math.Inf(1)},
		{"codec", math.Inf(-1)},
		{"codec", -1},
		{"codec", 0.01},                 // 128 frames
		{"codec", 1024.0 / 8000},        // a ring the size of the window
		{"codec", (1<<30 + 1) / 8000.0}, // rounds up to 2^31 frames
		{"codec", 1e300},
		{"hifi", 4096.0 / 44100},
	} {
		srv, err := New(Options{Logf: func(string, ...any) {}, Devices: []DeviceSpec{
			{Kind: "hifi", Name: "good", Clock: vdev.NewManualClock(44100)},
			{Kind: bad.kind, Name: "bad", Clock: vdev.NewManualClock(8000), BufSeconds: bad.secs},
		}})
		if err == nil {
			srv.Close()
			t.Errorf("%s BufSeconds %v accepted", bad.kind, bad.secs)
		} else if !strings.Contains(err.Error(), `"bad"`) {
			t.Errorf("%s BufSeconds %v refused with %q, which does not name the device", bad.kind, bad.secs, err)
		}
	}

	// The smallest depth whose ring (2048 frames) is larger than the
	// codec's 1024-frame window.
	smallest := 1025.0 / 8000
	for int(smallest*8000) < 1025 {
		smallest = math.Nextafter(smallest, 1)
	}
	for s := math.Nextafter(smallest, 0); int(s*8000) >= 1025; s = math.Nextafter(s, 0) {
		smallest = s
	}
	for _, secs := range []float64{0, 1, smallest} {
		clk := vdev.NewManualClock(8000)
		srv, err := New(Options{Logf: func(string, ...any) {}, Devices: []DeviceSpec{{Kind: "codec", Clock: clk, BufSeconds: secs}}})
		if err != nil {
			t.Fatalf("BufSeconds %v: %v", secs, err)
		}
		t.Cleanup(srv.Close)
		c := pipeConn(t, srv)
		ac, err := c.CreateAC(0, 0, af.ACAttributes{})
		if err != nil {
			t.Fatal(err)
		}
		now, err := c.GetTime(0)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := ac.PlaySamples(now.Add(200), make([]byte, 2000))
			done <- err
		}()
		for deadline := time.Now().Add(10 * time.Second); ; {
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("BufSeconds %v: play: %v", secs, err)
				}
			default:
				if time.Now().After(deadline) {
					t.Fatalf("BufSeconds %v: a 2000-frame play 200 frames ahead never completed", secs)
				}
				clk.Advance(64)
				srv.Sync()
				time.Sleep(time.Millisecond)
				continue
			}
			break
		}
	}
}

// TestSyncAfterClose: once closed, and its device buffers released, a
// server's Sync, Snapshot and Close touch no buffer and do not panic.
func TestSyncAfterClose(t *testing.T) {
	srv, err := New(Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Sync()
	if err := srv.Snapshot().Check(true); err != nil {
		t.Error(err)
	}
	srv.Close()
}
