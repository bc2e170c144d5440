package aserver

import (
	"encoding/binary"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"audiofile/internal/proto"
	"audiofile/internal/vdev"
)

// controlBurst is one pipelined write of control requests that touch
// every kind of ctl-guarded state: the client's AC table, a device's
// properties (which fans an event out to every flooder), the event masks
// and the AC table again.
func controlBurst(t *testing.T) []byte {
	t.Helper()
	w := proto.Writer{Order: binary.LittleEndian}
	for i := 0; i < 8; i++ {
		for _, err := range []error{
			proto.AppendCreateAC(&w, proto.CreateACReq{AC: 1, Device: 0}),
			proto.AppendChangeProperty(&w, proto.ChangePropertyReq{
				Device: 0, Property: 1, Type: 2, Format: 8,
				Mode: proto.PropModeReplace, Data: []byte("flood"),
			}),
			proto.AppendSelectEvents(&w, proto.SelectEventsReq{Device: 0, Mask: ^uint32(0)}),
			proto.AppendFreeAC(&w, 1),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return w.Buf
}

// TestCloseDuringControlFlood shuts the server down — by Close and by
// Drain — while connections are pipelining control requests, connecting
// and disconnecting, so readers are holding or waiting on ctl when the
// shutdown sweep takes it. Shutdown must return promptly, every client
// that registered must be removed and classified exactly once, and
// nothing may be left behind: no queued bytes, no pooled frames, no
// goroutines.
func TestCloseDuringControlFlood(t *testing.T) {
	burst := controlBurst(t)
	for _, tc := range []struct {
		name string
		stop func(*Server)
	}{
		{"Close", (*Server).Close},
		{"Drain", func(s *Server) { s.Drain(50 * time.Millisecond) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runtime.GC()
			baseline := runtime.NumGoroutine()
			srv, err := New(Options{
				Devices: []DeviceSpec{{Kind: "codec", Clock: vdev.NewManualClock(8000)}},
				Logf:    func(string, ...any) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			quit := make(chan struct{})
			var wg sync.WaitGroup
			// session runs one connection: setup, a few bursts, disconnect.
			// Any step may fail once the server is stopping — that is the
			// point — and the session just ends.
			session := func(bursts int) {
				nc := srv.DialPipe()
				defer nc.Close()
				if _, err := proto.Setup(nc, nc, binary.LittleEndian, "", nil); err != nil {
					return
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					io.Copy(io.Discard, nc) //nolint:errcheck — events and errors, unread
				}()
				for ; bursts > 0; bursts-- {
					if _, err := nc.Write(burst); err != nil {
						return
					}
				}
			}
			const flooders = 8
			for i := 0; i < flooders; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := i; ; n++ {
						select {
						case <-quit:
							return
						default:
						}
						session(1 + n%4)
					}
				}()
			}
			// Let the flood reach steady state: sessions have come and gone.
			for deadline := time.Now().Add(5 * time.Second); srv.Snapshot().Disconnects < 2*flooders; {
				if time.Now().After(deadline) {
					t.Fatal("flood never got going")
				}
				time.Sleep(time.Millisecond)
			}

			stopped := make(chan struct{})
			go func() {
				tc.stop(srv)
				close(stopped)
			}()
			select {
			case <-stopped:
			case <-time.After(2 * time.Second):
				buf := make([]byte, 1<<20)
				t.Fatalf("%s did not return within 2s under a control flood\n%s",
					tc.name, buf[:runtime.Stack(buf, true)])
			}
			close(quit)
			wg.Wait()

			snap := srv.Snapshot()
			if err := snap.Check(true); err != nil {
				t.Errorf("after %s: %v", tc.name, err)
			}
			if snap.ActiveClients != 0 {
				t.Errorf("%d clients active after %s", snap.ActiveClients, tc.name)
			}
			if snap.QueuedBytes != 0 || snap.FrameBytesInFlight != 0 {
				t.Errorf("left behind: queued_bytes %d, frame_bytes_in_flight %d",
					snap.QueuedBytes, snap.FrameBytesInFlight)
			}
			// Goroutines wind down asynchronously (pipe ends, drainers).
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("%d goroutines after %s, baseline %d\n%s", runtime.NumGoroutine(),
						tc.name, baseline, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}
