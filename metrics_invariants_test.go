// Metrics invariant tests: run the shard-stress workload shapes and then
// hold the observability layer to its conservation laws
// (aserver.Snapshot.Check), live throughout and exactly once drained.
// The laws are exact, not statistical, so any drift here means a counter
// has lost its single owner. Run under -race in CI alongside the stress
// tests.
package audiofile

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/internal/netsim"
	"audiofile/internal/rig"
	"audiofile/internal/vdev"
)

// drainSnapshot polls until every client is gone (connects ==
// disconnects, no parks outstanding, no bytes queued) and returns the
// settled snapshot. Client teardown is asynchronous — the reader exits,
// the loop unregisters, then the writer settles its last bytes — so the
// counters converge shortly after the last Close.
func drainSnapshot(t *testing.T, srv *aserver.Server) aserver.Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := srv.Snapshot()
		parked := int64(0)
		for _, d := range s.Devices {
			parked += d.ParkedNow
		}
		if s.Connects == s.Disconnects && s.ActiveClients == 0 && parked == 0 && s.QueuedBytes == 0 {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not drain: connects=%d disconnects=%d active=%d parked=%d queued=%d",
				s.Connects, s.Disconnects, s.ActiveClients, parked, s.QueuedBytes)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// parksStarted is the server's parks_started count over every device.
func parksStarted(srv *aserver.Server) (n uint64) {
	for _, d := range srv.Snapshot().Devices {
		n += d.ParksStarted
	}
	return n
}

// TestMetricsConservation runs the full stress mix — several devices,
// preempting and mixing players, blocking records resolved by a clock
// stepper, and killer clients that drop their transport mid-park —
// holding every snapshot taken meanwhile to the laws' live forms, then
// asserts every law exactly on the drained counters.
func TestMetricsConservation(t *testing.T) {
	const devices = 3
	const healthy = 8
	const killers = 4
	const iters = 50

	clocks := make([]*vdev.ManualClock, devices)
	specs := make([]aserver.DeviceSpec, devices)
	for i := range specs {
		clocks[i] = vdev.NewManualClock(8000)
		specs[i] = aserver.DeviceSpec{
			Kind:  "codec",
			Name:  fmt.Sprintf("codec%d", i),
			Clock: clocks[i],
		}
	}
	srv := rig.Server(t, aserver.Options{Devices: specs})
	rig.Step(t, srv, 100*time.Microsecond, clocks...)

	var firstErr rig.FirstError
	fail := firstErr.Fail

	// A poller holds every live snapshot to the laws' live forms.
	stopPoll, polled := make(chan struct{}), make(chan struct{})
	var polls int
	go func() {
		defer close(polled)
		for ; ; polls++ {
			select {
			case <-stopPoll:
				return
			default:
			}
			if err := srv.Snapshot().Check(false); err != nil {
				fail(fmt.Errorf("live snapshot %d: %w", polls, err))
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Killer clients: park a record far in the future, then cut the
	// transport while the healthy clients run. Their parks must drain as
	// discarded, not completed. Each parks before any healthy client
	// connects, so parks_started reaching its number is the sign that its
	// own record has parked.
	var cuts []func()
	for i := 0; i < killers; i++ {
		nc := srv.DialPipe()
		conn, err := rig.Client(nc)
		if err != nil {
			t.Fatal(err)
		}
		ac, err := conn.CreateAC(i%devices, 0, af.ACAttributes{})
		if err != nil {
			t.Fatal(err)
		}
		now, err := ac.GetTime()
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			buf := make([]byte, 256)
			ac.RecordSamples(now.Add(10_000_000), buf, true) //nolint:errcheck
		}()
		for deadline := time.Now().Add(10 * time.Second); parksStarted(srv) <= uint64(i); {
			if time.Now().After(deadline) {
				t.Fatalf("killer client %d: its record never parked", i)
			}
			time.Sleep(100 * time.Microsecond)
		}
		cuts = append(cuts, func() {
			nc.Close()
			<-done
		})
	}

	var wg sync.WaitGroup
	var playBytesSent [devices]atomic.Uint64
	for i := 0; i < healthy; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := rig.Client(srv.DialPipe())
			if err != nil {
				fail(err)
				return
			}
			defer conn.Close()
			var attrs af.ACAttributes
			mask := uint32(0)
			if i%2 == 0 {
				mask, attrs.Preempt = af.ACPreemption, true
			}
			dev := i % devices
			ac, err := conn.CreateAC(dev, mask, attrs)
			if err != nil {
				fail(err)
				return
			}
			data := make([]byte, 4096)
			buf := make([]byte, 256)
			for j := 0; j < iters; j++ {
				now, err := ac.GetTime()
				if err != nil {
					fail(err)
					return
				}
				switch j % 3 {
				case 0:
					if _, err := ac.PlaySamples(now.Add(1024), data); err != nil {
						fail(err)
						return
					}
					playBytesSent[dev].Add(uint64(len(data)))
				case 1:
					if _, _, err := ac.RecordSamples(now, buf, true); err != nil {
						fail(err)
						return
					}
				case 2:
					if _, err := ac.GetTime(); err != nil {
						fail(err)
						return
					}
				}
			}
		}(i)
	}

	for _, cut := range cuts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cut()
		}()
	}

	wg.Wait()
	close(stopPoll)
	<-polled
	if err := firstErr.Err(); err != nil {
		t.Fatal(err)
	}
	if polls == 0 {
		t.Error("no live snapshot was checked")
	}

	s := drainSnapshot(t, srv)
	if err := s.Check(true); err != nil {
		t.Error(err)
	}

	// The workload must actually have moved the counters it claims to
	// conserve, or the laws hold vacuously.
	for _, d := range s.Devices {
		if d.FramesAccepted == 0 {
			t.Errorf("device %d: no frames accepted; workload did not exercise play", d.Index)
		}
		if d.FramesRecorded == 0 {
			t.Errorf("device %d: no frames recorded", d.Index)
		}
		// MU255 mono: one byte per frame, and no play in this mix ever
		// aborts mid-park, so wire bytes in equal frames accepted.
		if want := playBytesSent[d.Index].Load(); d.PlayBytes != want || d.FramesAccepted != want {
			t.Errorf("device %d: play bytes %d / frames accepted %d, want %d (bytes sent)",
				d.Index, d.PlayBytes, d.FramesAccepted, want)
		}
	}
	if s.DispatchPlayNs.Count == 0 || s.DispatchRecordNs.Count == 0 || s.DispatchGetTimeNs.Count == 0 {
		t.Error("hot dispatch histograms did not all move")
	}
	killed := uint64(0)
	for _, d := range s.Devices {
		killed += d.ParksDiscarded
	}
	if killed < killers {
		t.Errorf("parks discarded %d < killer clients %d", killed, killers)
	}
}

// TestMetricsFaultInjectedClients drives the server through netsim's
// deterministic fault layer over real TCP: clients whose writes arrive
// fragmented at arbitrary boundaries must see a fully correct session,
// and clients whose connection resets mid-message must be torn down
// cleanly — the conservation laws and the connect/disconnect balance
// hold either way.
func TestMetricsFaultInjectedClients(t *testing.T) {
	srv := rig.Server(t, aserver.Options{
		Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Clock: vdev.NewManualClock(8000)}},
	})
	addr := rig.Listen(t, srv, "tcp")

	dialFault := func(cfg netsim.FaultConfig) net.Conn {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		return netsim.NewFaultConn(nc, cfg)
	}

	var wg sync.WaitGroup
	var firstErr rig.FirstError
	fail := firstErr.Fail

	// Fragmented clients: every wire byte arrives in 1..7 byte pieces
	// (splitting even the 4-byte request headers); the session must be
	// indistinguishable from a clean transport.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fc := dialFault(netsim.FaultConfig{Seed: int64(1000 + i), MaxFragment: 7})
			conn, err := rig.Client(fc)
			if err != nil {
				fail(fmt.Errorf("fragmented setup: %w", err))
				return
			}
			defer conn.Close()
			ac, err := conn.CreateAC(0, 0, af.ACAttributes{})
			if err != nil {
				fail(err)
				return
			}
			data := make([]byte, 1024)
			for j := 0; j < 20; j++ {
				now, err := ac.GetTime()
				if err != nil {
					fail(err)
					return
				}
				if _, err := ac.PlaySamples(now.Add(512), data); err != nil {
					fail(err)
					return
				}
			}
			if err := conn.Sync(); err != nil {
				fail(err)
			}
		}(i)
	}

	// Reset clients: the connection dies at a byte count chosen to land
	// inside a play request's payload. The server must unwind the
	// half-read message and unregister the client; the expected client-
	// side error is the injected reset itself.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fc := dialFault(netsim.FaultConfig{Seed: int64(i), ResetAfterBytes: 300 + 50*i})
			conn, err := rig.Client(fc)
			if err != nil {
				return // reset landed inside setup; also a valid cut
			}
			defer conn.Close()
			ac, err := conn.CreateAC(0, 0, af.ACAttributes{})
			if err != nil {
				return
			}
			data := make([]byte, 4096)
			for j := 0; j < 10; j++ {
				now, err := ac.GetTime()
				if err != nil {
					return
				}
				if _, err := ac.PlaySamples(now.Add(512), data); err != nil {
					return
				}
			}
		}(i)
	}

	wg.Wait()
	if err := firstErr.Err(); err != nil {
		t.Fatal(err)
	}

	s := drainSnapshot(t, srv)
	if err := s.Check(true); err != nil {
		t.Error(err)
	}
	if s.Connects < 4 {
		t.Errorf("connects = %d, want at least the 4 fragmented clients", s.Connects)
	}

	// The server must still serve a clean client.
	conn, err := rig.Client(srv.DialPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.GetTime(0); err != nil {
		t.Fatalf("server unhealthy after fault injection: %v", err)
	}
	if err := conn.Sync(); err != nil {
		t.Fatal(err)
	}
}
