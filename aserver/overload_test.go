package aserver

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/internal/proto"
	"audiofile/internal/vdev"
)

// Eviction-policy conformance: the slow-consumer state machine is pure
// (one atomic, explicit clock), so its contract is checked exhaustively
// with fabricated observations. Times are nanos on an arbitrary epoch.
func TestEvictPolicyConformance(t *testing.T) {
	const budget = 1000
	const grace = 100 * time.Millisecond
	// Observation times are offsets from a nonzero epoch: the policy's
	// clock is unix nanos with 0 reserved as the "under budget" sentinel.
	const epoch = int64(time.Hour)
	type obs struct {
		queued int64
		at     time.Duration // observation time from epoch
		drain  bool          // onDrain observation instead of onQueue
		want   flowVerdict   // ignored for drain observations
	}
	cases := []struct {
		name string
		seq  []obs
	}{
		{name: "under budget is always ok", seq: []obs{
			{queued: 0, at: 0, want: flowOK},
			{queued: budget, at: time.Hour, want: flowOK},
		}},
		{name: "first over-budget starts the clock", seq: []obs{
			{queued: budget + 1, at: 0, want: flowOver},
			{queued: budget + 1, at: grace / 2, want: flowOver},
		}},
		{name: "exactly the allowance is not yet eviction", seq: []obs{
			{queued: budget + 1, at: 0, want: flowOver},
			{queued: budget + 1, at: grace, want: flowOver},
		}},
		{name: "past the allowance is eviction", seq: []obs{
			{queued: budget + 1, at: 0, want: flowOver},
			{queued: budget + 1, at: grace + time.Nanosecond, want: flowEvict},
		}},
		{name: "recovery just before the threshold is not evicted", seq: []obs{
			{queued: budget + 500, at: 0, want: flowOver},
			{queued: budget + 500, at: grace - time.Millisecond, want: flowOver},
			// The writer catches up: back under budget resets the clock.
			{queued: budget - 1, at: grace - time.Millisecond, drain: true},
			// A fresh excursion gets a fresh allowance, long after the
			// original clock would have expired.
			{queued: budget + 1, at: 10 * grace, want: flowOver},
			{queued: budget + 1, at: 11*grace - time.Millisecond, want: flowOver},
			{queued: budget + 1, at: 11*grace + time.Millisecond, want: flowEvict},
		}},
		{name: "onQueue under budget also resets", seq: []obs{
			{queued: budget + 1, at: 0, want: flowOver},
			{queued: budget, at: grace / 2, want: flowOK},
			{queued: budget + 1, at: 10 * grace, want: flowOver},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &evictPolicy{budget: budget, grace: grace}
			for i, o := range tc.seq {
				if o.drain {
					p.onDrain(o.queued)
					continue
				}
				if got := p.onQueue(o.queued, epoch+int64(o.at)); got != o.want {
					t.Fatalf("obs %d (queued %d at %v): verdict %d, want %d",
						i, o.queued, o.at, got, o.want)
				}
			}
		})
	}
}

func TestEvictPolicyWriteAllowance(t *testing.T) {
	const epoch = int64(time.Hour)
	p := &evictPolicy{budget: 1000, grace: 100 * time.Millisecond}
	if _, armed := p.writeAllowance(epoch); armed {
		t.Error("deadline armed while under budget")
	}
	p.onQueue(2000, epoch)
	allow, armed := p.writeAllowance(epoch + int64(40*time.Millisecond))
	if !armed || allow != 60*time.Millisecond {
		t.Errorf("writeAllowance = %v, %v; want 60ms, true", allow, armed)
	}
	// Past the allowance the deadline is floored, never zero or negative:
	// a late-armed deadline must still permit a write to complete.
	allow, armed = p.writeAllowance(epoch + int64(time.Hour))
	if !armed || allow != 5*time.Millisecond {
		t.Errorf("expired writeAllowance = %v, %v; want 5ms floor", allow, armed)
	}
}

// dialRaw opens a protocol session over the server's pipe transport and
// returns the bare conn past setup, or nil (with the test failed).
func dialRaw(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	nc := srv.DialPipe()
	if _, err := proto.Setup(nc, nc, binary.LittleEndian, "", nil); err != nil {
		t.Errorf("raw session: %v", err)
		return nil
	}
	return nc
}

// rawFlooder opens a protocol session over the given transport and
// writes GetTime requests without ever reading a reply: the wedged
// consumer. Returns after n requests are written or the transport dies
// (reset by the server's eviction).
func rawFlooder(t *testing.T, srv *Server, n int) {
	t.Helper()
	nc := dialRaw(t, srv)
	if nc == nil {
		return
	}
	var w proto.Writer
	w.Order = binary.LittleEndian
	proto.AppendDeviceReq(&w, proto.OpGetTime, 0) //nolint:errcheck
	req := w.Buf
	for i := 0; i < n; i++ {
		if _, err := nc.Write(req); err != nil {
			return // evicted: the expected outcome
		}
	}
	// Keep the transport open (still never reading) so eviction, not a
	// client-side close, ends the session.
	<-time.After(10 * time.Second)
	nc.Close()
}

// TestWedgedReaderDoesNotStallOthers is the regression test for the
// blocking-send hazard: a client that stops reading its replies must be
// evicted within its configured allowance while a second client on the
// same device keeps playing, never blocked by the wedged writer.
func TestWedgedReaderDoesNotStallOthers(t *testing.T) {
	clk := vdev.NewManualClock(8000)
	srv, err := New(Options{
		Devices:          []DeviceSpec{{Kind: "codec", Name: "codec0", Clock: clk}},
		Logf:             func(string, ...any) {},
		ClientQueueBytes: 4 << 10,
		EvictGrace:       50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	stop := make(chan struct{})
	var stepWG sync.WaitGroup
	stepWG.Add(1)
	go func() {
		defer stepWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			clk.Advance(256)
			srv.Sync()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	t.Cleanup(stepWG.Wait)
	t.Cleanup(func() { close(stop) })

	// The wedged client floods GetTime requests and never reads. Its
	// replies (16 bytes each) pile up in its send queue: past 4 KiB the
	// policy clock starts, and 50ms later the sweep or the writer's
	// missed deadline must evict it.
	var floodWG sync.WaitGroup
	floodWG.Add(1)
	go func() {
		defer floodWG.Done()
		rawFlooder(t, srv, 100_000)
	}()

	// Meanwhile the healthy client on the same device must see every
	// play complete: the engine dispatches both clients' requests, so a
	// send that blocked on the wedged client's queue would stall this
	// one too.
	conn, err := af.NewConn(srv.DialPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetIOErrorHandler(func(*af.Conn, error) {})
	ac, err := conn.CreateAC(0, 0, af.ACAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 512)
	for i := 0; i < 50; i++ {
		now, err := ac.GetTime()
		if err != nil {
			t.Fatalf("healthy client GetTime %d: %v", i, err)
		}
		if _, err := ac.PlaySamples(now.Add(1024), data); err != nil {
			t.Fatalf("healthy client play %d during flood: %v", i, err)
		}
	}

	// The flooder must be evicted (not merely slowed) within its
	// allowance; poll briefly for the counter.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := srv.Snapshot(); s.Evictions >= 1 {
			break
		}
		if time.Now().After(deadline) {
			s := srv.Snapshot()
			t.Fatalf("wedged client not evicted: evictions=%d queued=%d", s.Evictions, s.QueuedBytes)
		}
		time.Sleep(2 * time.Millisecond)
	}
	floodWG.Wait()
	conn.Close()

	// Settle and hold the conservation laws to equality.
	deadline = time.Now().Add(5 * time.Second)
	for {
		s := srv.Snapshot()
		if s.Connects == s.Disconnects && s.ActiveClients == 0 {
			if err := s.Check(true); err != nil {
				t.Error(err)
			}
			if s.QueuedBytes != 0 {
				t.Errorf("queued bytes %d after all clients gone", s.QueuedBytes)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("clients did not settle: connects=%d disconnects=%d active=%d",
				s.Connects, s.Disconnects, s.ActiveClients)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDrainGraceful checks the shutdown path: Drain lets buffered play
// audio reach the device tail before disconnecting anyone, classifies
// the disconnects it forces as drains, and leaves the conservation law
// at equality.
func TestDrainGraceful(t *testing.T) {
	clk := vdev.NewManualClock(8000)
	srv, err := New(Options{
		Devices: []DeviceSpec{{Kind: "codec", Name: "codec0", Clock: clk}},
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	conn, err := af.NewConn(srv.DialPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetIOErrorHandler(func(*af.Conn, error) {})
	ac, err := conn.CreateAC(0, 0, af.ACAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(256)
	srv.Sync()
	now, err := ac.GetTime()
	if err != nil {
		t.Fatal(err)
	}
	// Buffer half a second of future audio, then ask for shutdown: the
	// drain must hold the server open until the clock consumes it.
	if _, err := ac.PlaySamples(now.Add(64), make([]byte, 4000)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var stepWG sync.WaitGroup
	stepWG.Add(1)
	go func() {
		defer stepWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clk.Advance(256)
				srv.Sync()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	defer stepWG.Wait()
	defer close(stop)

	srv.Drain(10 * time.Second)

	s := srv.Snapshot()
	if s.Drains != 1 {
		t.Errorf("drains = %d, want 1 (the connected client)", s.Drains)
	}
	if err := s.Check(true); err != nil {
		t.Errorf("after drain: %v", err)
	}
	// All buffered audio must have been consumed, none discarded by the
	// shutdown: that is the "graceful" in graceful drain.
	for _, d := range s.Devices {
		if d.FramesDiscarded != 0 {
			t.Errorf("device %d discarded %d frames during drain", d.Index, d.FramesDiscarded)
		}
		if d.FramesAccepted != d.FramesBuffered {
			t.Errorf("device %d: accepted %d != buffered %d", d.Index, d.FramesAccepted, d.FramesBuffered)
		}
	}
}

// TestDrainRefusesSetup checks that a connection arriving after Drain
// has begun is refused at setup rather than silently hung.
func TestDrainRefusesSetup(t *testing.T) {
	srv, err := New(Options{
		Devices: []DeviceSpec{{Kind: "codec", Name: "codec0", Clock: vdev.NewManualClock(8000)}},
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	// Dial before Drain (afterwards the pipe endpoint is gone), but
	// handshake after: the setup must be refused.
	nc := srv.DialPipe()
	defer nc.Close()
	srv.draining.Store(true)
	defer srv.draining.Store(false)
	rep, err := proto.Setup(nc, nc, binary.LittleEndian, "", nil)
	if rep == nil {
		t.Fatal(err)
	}
	if rep.Success {
		t.Error("setup accepted while draining")
	}
}
