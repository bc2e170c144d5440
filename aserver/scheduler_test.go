package aserver

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/internal/proto"
	"audiofile/internal/vdev"
)

// manyCodecs builds n manual-clock CODEC device specs (no real-time
// clocks, so the fleet is cheap to host in a test).
func manyCodecs(n int) []DeviceSpec {
	specs := make([]DeviceSpec, n)
	for i := range specs {
		specs[i] = DeviceSpec{
			Kind:  "codec",
			Name:  fmt.Sprintf("codec%d", i),
			Clock: vdev.NewManualClock(8000),
		}
	}
	return specs
}

// TestUpdatePlaneGoroutineInventory is the tentpole's headline claim:
// hosting 1024 devices must cost O(shards + workers) resident
// goroutines, not one per device. The old design ran engine.run() per
// engine — 1024 goroutines here; the wheel/scheduler runs shard loops
// plus the bounded worker pool, and New starts nothing else (the control
// plane is a lock).
func TestUpdatePlaneGoroutineInventory(t *testing.T) {
	const devs = 1024
	runtime.GC()
	before := runtime.NumGoroutine()
	s, err := New(Options{
		Devices: manyCodecs(devs),
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	after := runtime.NumGoroutine()
	delta := after - before
	budget := s.sched.wheel.Shards() + s.sched.workers + 7 // runtime slack
	if delta > budget {
		t.Fatalf("hosting %d devices added %d goroutines, budget %d (shards=%d workers=%d)",
			devs, delta, budget, s.sched.wheel.Shards(), s.sched.workers)
	}
	if delta >= devs {
		t.Fatalf("goroutine count grew with device count: +%d for %d devices", delta, devs)
	}
}

// TestSchedulerRunsUpdates checks the wheel actually drives the periodic
// update pump: engines get serviced by workers at their cadence and the
// scheduler accounting moves.
func TestSchedulerRunsUpdates(t *testing.T) {
	s, err := New(Options{
		Devices: manyCodecs(4),
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Codec interval is min(100ms, hwDur/2) = 64ms; 500ms covers several
	// ticks for all four engines even on a loaded CI machine.
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := s.Snapshot()
		if snap.SchedEngineRuns >= 8 && snap.SchedTickLagNs.Count >= 8 {
			if snap.SchedOverdueTasks < 0 {
				t.Fatalf("sched.overdue_tasks gauge went negative: %d", snap.SchedOverdueTasks)
			}
			if snap.SchedWorkersBusy < 0 {
				t.Fatalf("sched.workers_busy gauge went negative: %d", snap.SchedWorkersBusy)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("scheduler barely ran: engine_runs=%d tick_lag_count=%d",
				snap.SchedEngineRuns, snap.SchedTickLagNs.Count)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// floodControl hammers the control plane with round-trip control requests
// from its own connection until the returned stop function is called:
// the control lock is taken back to back, so timed work that needed it —
// or waited for the control plane to have a free moment — would starve.
func floodControl(t *testing.T, srv *Server) (stop func()) {
	t.Helper()
	flood, err := af.NewConn(srv.DialPipe())
	if err != nil {
		t.Fatal(err)
	}
	flood.SetIOErrorHandler(func(*af.Conn, error) {})
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-quit:
				return
			default:
			}
			if err := flood.Sync(); err != nil {
				return
			}
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
		flood.Close()
	}
}

// TestControlJobsUnderControlFlood pins the control plane's two timed
// jobs to the scheduler rather than to the control lock: while a second
// connection keeps the lock contended, a flash-hook's re-hook event still arrives at its duration, and the overload sweep still
// evicts a wedged consumer that has gone silent (so nothing but the sweep
// can judge it) within its grace.
func TestControlJobsUnderControlFlood(t *testing.T) {
	const grace = 50 * time.Millisecond
	srv, err := New(Options{
		Devices:          []DeviceSpec{{Kind: "phone", Name: "phone0", Clock: vdev.NewManualClock(8000)}},
		Logf:             func(string, ...any) {},
		ClientQueueBytes: 4 << 10,
		EvictGrace:       grace,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := af.NewConn(srv.DialPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetIOErrorHandler(func(*af.Conn, error) {})
	if err := c.SelectEvents(0, af.MaskAllEvents); err != nil {
		t.Fatal(err)
	}
	if err := c.HookSwitch(0, true); err != nil {
		t.Fatal(err)
	}
	if ev, err := c.NextEvent(); err != nil || ev.Code != af.EventPhoneHookSwitch || ev.Detail != 1 {
		t.Fatalf("off-hook event = %+v, %v", ev, err)
	}
	defer floodControl(t, srv)()

	// The re-hook: on-hook at once, off-hook again 30 ms later.
	const flash = 30 * time.Millisecond
	start := time.Now()
	if err := c.FlashHook(0, int(flash/time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []byte{0, 1} {
		ev, err := c.NextEvent()
		if err != nil || ev.Code != af.EventPhoneHookSwitch || ev.Detail != want {
			t.Fatalf("flash event = %+v, %v; want hook-switch detail %d", ev, err, want)
		}
	}
	if d := time.Since(start); d < flash || d > flash+250*time.Millisecond {
		t.Fatalf("re-hook event arrived %v after a %v flash under a control flood", d, flash)
	}

	// The sweep: a consumer that never reads sends one GetTime, whose
	// reply wedges its writer in a write begun under budget (no deadline),
	// then pipelines enough to put its queue over budget and falls silent.
	// It queues nothing more, so only the sweep can evict it.
	nc := dialRaw(t, srv)
	if nc == nil {
		return
	}
	defer nc.Close()
	w := proto.Writer{Order: binary.LittleEndian}
	proto.AppendDeviceReq(&w, proto.OpGetTime, 0) //nolint:errcheck
	one := len(w.Buf)
	for i := 0; i < 512; i++ {
		proto.AppendDeviceReq(&w, proto.OpGetTime, 0) //nolint:errcheck
	}
	if _, err := nc.Write(w.Buf[:one]); err != nil {
		t.Fatal(err)
	}
	// One byte of the reply read off the pipe: the writer is now inside
	// that write, and stays there.
	if _, err := nc.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if _, err := nc.Write(w.Buf[one:]); err != nil {
		t.Fatal(err)
	}
	for srv.Snapshot().Evictions == 0 {
		if time.Since(start) > grace+grace/2+500*time.Millisecond {
			t.Fatalf("silent wedged consumer not evicted %v after going over budget (grace %v)", time.Since(start), grace)
		}
		time.Sleep(time.Millisecond)
	}
}
