// Overload soak test: one server versus a mixed population of
// fault-injected clients — fragmented writers, mid-message resets,
// stalling transports, and a wedged consumer that floods requests and
// never reads a reply — for a simulated minute of device time on a
// manual clock. The assertions are the overload-protection contract:
// the wedged client is evicted within its allowance while healthy
// clients play on, engine lock holds stay (at their p99) under one
// device update period, pooled ingress bytes stay under the ceiling,
// and every conservation law (frames, parks, and the close-reason
// accounting of disconnects) holds exactly once the dust settles.
// Deterministic fault schedules (fixed seeds) and the manual clock keep
// the run reproducible; CI runs it twice under -race.
package audiofile

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/internal/core"
	"audiofile/internal/netsim"
	"audiofile/internal/proto"
	"audiofile/internal/rig"
	"audiofile/internal/vdev"
)

func TestOverloadSoak(t *testing.T) {
	const (
		rate         = 8000
		simMinute    = 60 * rate // frames of simulated device time
		clientBudget = 32 << 10
		frameCeiling = 16 << 20
		evictGrace   = 100 * time.Millisecond
		fragClients  = 3
		resetClients = 2
		stallClients = 2
		// Enough that the flood's reply stream (16 bytes per GetTime)
		// overflows any kernel socket buffering: with TCP autotuning the
		// send buffer can absorb several MB before user-space queueing —
		// and thus the eviction policy — sees a single byte. Eviction cuts
		// the flood long before this count in the expected case, so the
		// number only bounds the pathological no-eviction path.
		floodRequests = 400_000
	)

	clk := vdev.NewManualClock(rate)
	srv := rig.Server(t, aserver.Options{
		Devices:           []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Clock: clk}},
		ClientQueueBytes:  clientBudget,
		EvictGrace:        evictGrace,
		FrameBytesCeiling: frameCeiling,
	})
	addr := rig.Listen(t, srv, "tcp")

	// Clock stepper: drives device time and keeps stepping until both the
	// workload is done and a full simulated minute has elapsed, so every
	// park and buffered frame can resolve.
	stepper := rig.Step(t, srv, 50*time.Microsecond, clk)

	// Budget watcher: the pooled-frame gauge must stay under the ceiling
	// at every instant, not just at the end.
	var maxFrameBytes atomic.Int64
	stop := make(chan struct{})
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if fb := srv.Snapshot().FrameBytesInFlight; fb > maxFrameBytes.Load() {
				maxFrameBytes.Store(fb)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	t.Cleanup(watchWG.Wait)
	t.Cleanup(func() { close(stop) })

	var firstErr rig.FirstError
	fail := firstErr.Fail
	dialFault := func(cfg netsim.FaultConfig) net.Conn {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Error(err)
			return nil
		}
		return netsim.NewFaultConn(nc, cfg)
	}

	var wg sync.WaitGroup

	// Fragmented clients: correct sessions over a transport that splits
	// every write at arbitrary boundaries. Their operations must all
	// succeed despite the churn around them.
	for i := 0; i < fragClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fc := dialFault(netsim.FaultConfig{Seed: int64(1000 + i), MaxFragment: 7})
			if fc == nil {
				return
			}
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
			for j := 0; j < 40; j++ {
				now, err := ac.GetTime()
				if err != nil {
					fail(fmt.Errorf("fragmented client %d GetTime %d: %w", i, j, err))
					return
				}
				if _, err := ac.PlaySamples(now.Add(512), data); err != nil {
					fail(fmt.Errorf("fragmented client %d play %d: %w", i, j, err))
					return
				}
			}
		}(i)
	}

	// Reset clients: the transport dies mid-message at a deterministic
	// byte count. Whatever they manage before the cut is fine; the server
	// must account their teardown.
	for i := 0; i < resetClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fc := dialFault(netsim.FaultConfig{Seed: int64(i), ResetAfterBytes: 400 + 100*i})
			if fc == nil {
				return
			}
			conn, err := rig.Client(fc)
			if err != nil {
				return // cut landed in setup
			}
			defer conn.Close()
			ac, err := conn.CreateAC(0, 0, af.ACAttributes{})
			if err != nil {
				return
			}
			data := make([]byte, 2048)
			for j := 0; j < 20; j++ {
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

	// Stalling clients: the write path pauses periodically, modeling a
	// congested peer. Slow, but still correct — they must not be evicted
	// (their own sends stall; the server's queue to them stays small).
	for i := 0; i < stallClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fc := dialFault(netsim.FaultConfig{
				Seed: int64(2000 + i), StallEveryBytes: 4096, Stall: 2 * time.Millisecond})
			if fc == nil {
				return
			}
			conn, err := rig.Client(fc)
			if err != nil {
				fail(fmt.Errorf("stall setup: %w", err))
				return
			}
			defer conn.Close()
			ac, err := conn.CreateAC(0, 0, af.ACAttributes{})
			if err != nil {
				fail(err)
				return
			}
			data := make([]byte, 4096)
			for j := 0; j < 10; j++ {
				now, err := ac.GetTime()
				if err != nil {
					fail(fmt.Errorf("stall client %d GetTime %d: %w", i, j, err))
					return
				}
				if _, err := ac.PlaySamples(now.Add(1024), data); err != nil {
					fail(fmt.Errorf("stall client %d play %d: %w", i, j, err))
					return
				}
			}
		}(i)
	}

	// The wedged consumer: floods pipelined GetTime requests over raw TCP
	// and never reads a single reply. Its receive buffer is pinned small so
	// the kernel cannot absorb the reply stream on its behalf: the staged
	// replies must pile up in its per-client send queue, cross the byte
	// budget, and the policy must evict it; the flood ends when the server
	// resets the transport under it. Bursts of back-to-back requests per
	// write are exactly the ingress-run shape the batching path coalesces,
	// so this also pins that staged egress obeys the queued-byte budget.
	wg.Add(1)
	go func() {
		defer wg.Done()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer nc.Close()
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetReadBuffer(4096) //nolint:errcheck
		}
		if _, err := proto.Setup(nc, nc, binary.LittleEndian, "", nil); err != nil {
			fail(fmt.Errorf("flooder: %w", err))
			return
		}
		var w proto.Writer
		w.Order = binary.LittleEndian
		const burst = 64
		for i := 0; i < burst; i++ {
			proto.AppendDeviceReq(&w, proto.OpGetTime, 0) //nolint:errcheck
		}
		for i := 0; i < floodRequests; i += burst {
			if _, err := nc.Write(w.Buf); err != nil {
				return // evicted: the expected outcome
			}
		}
		// Never read; wait for the server to cut the transport.
		nc.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		var buf [1]byte
		for {
			if _, err := nc.Read(buf[:]); err != nil {
				return
			}
		}
	}()

	// The canary: one healthy client on a clean transport whose every
	// operation must succeed while everything above is happening.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := rig.Client(srv.DialPipe())
		if err != nil {
			fail(err)
			return
		}
		defer conn.Close()
		ac, err := conn.CreateAC(0, 0, af.ACAttributes{})
		if err != nil {
			fail(err)
			return
		}
		data := make([]byte, 512)
		buf := make([]byte, 256)
		for j := 0; j < 100; j++ {
			now, err := ac.GetTime()
			if err != nil {
				fail(fmt.Errorf("canary GetTime %d: %w", j, err))
				return
			}
			if _, err := ac.PlaySamples(now.Add(1024), data); err != nil {
				fail(fmt.Errorf("canary play %d: %w", j, err))
				return
			}
			if j%5 == 0 {
				if _, _, err := ac.RecordSamples(now, buf, true); err != nil {
					fail(fmt.Errorf("canary record %d: %w", j, err))
					return
				}
			}
		}
	}()

	wg.Wait()
	if err := firstErr.Err(); err != nil {
		t.Fatal(err)
	}

	// Let the full simulated minute elapse before settling, so the run
	// covers sustained operation, not just the workload burst.
	for stepper.Frames() < simMinute {
		time.Sleep(time.Millisecond)
	}

	s := drainSnapshot(t, srv)
	if err := s.Check(true); err != nil {
		t.Error(err)
	}

	// The wedged consumer must have been evicted.
	if s.Evictions < 1 {
		t.Errorf("evictions = %d, want >= 1 (the wedged consumer)", s.Evictions)
	}

	// Resource invariants: queued bytes and pooled frames return to zero
	// once the clients are gone, and the in-flight frame gauge never
	// crossed the configured ceiling during the run.
	if s.QueuedBytes != 0 {
		t.Errorf("queued bytes %d after drain, want 0", s.QueuedBytes)
	}
	if s.FrameBytesInFlight != 0 {
		t.Errorf("frame bytes in flight %d after drain, want 0", s.FrameBytesInFlight)
	}
	if mfb := maxFrameBytes.Load(); mfb > frameCeiling {
		t.Errorf("pooled frame bytes peaked at %d, over the %d ceiling", mfb, frameCeiling)
	}

	// Real-time health: a wedged or evicted client must never stall the
	// data plane that other clients share, so the engine's own lock-hold
	// histogram stays under one device update period at its p99. Not at
	// its max: a hold is bounded by its work (a group's bodies fit one
	// ingress buffer), but its wall time is not — one holder descheduled
	// under -race on two CPUs is a sample of the scheduler, and a stall
	// the server causes would move far more than one hold in a hundred.
	updatePeriod := uint64(core.MSUpdate * time.Millisecond)
	for _, d := range s.Devices {
		if p99 := d.LockHoldNs.Quantile(0.99); p99 >= updatePeriod {
			t.Errorf("device %d: engine lock hold p99 %dns (of %d holds), update period is %dns",
				d.Index, p99, d.LockHoldNs.Count, updatePeriod)
		}
	}
}
