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

// TestUpdatePlaneGoroutineInventory is the update plane's headline claim:
// hosting 1024 devices adds no resident goroutine at all. An engine's
// timer is a passive entry in the runtime's timer heap; a fire's goroutine
// lives for one pass. So between fires the count is what it was before
// New — sampled over several update intervals and taken at its lowest,
// because the fleet ticks 128 engines at a time and a sample may land
// inside a tick.
func TestUpdatePlaneGoroutineInventory(t *testing.T) {
	const devs = 1024
	const slack = 3 // the runtime's own (GC workers, a timer fire winding down)
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
	resident, peak := runtime.NumGoroutine(), 0
	for end := time.Now().Add(4 * s.engines[0].interval); time.Now().Before(end); time.Sleep(time.Millisecond) {
		n := runtime.NumGoroutine()
		resident, peak = min(resident, n), max(peak, n)
	}
	if runs := s.Snapshot().SchedEngineRuns; runs < devs {
		t.Fatalf("only %d engine passes while sampling: the fleet is not ticking", runs)
	}
	if delta := resident - before; delta > slack {
		t.Fatalf("hosting %d devices added %d resident goroutines (peak +%d), want 0 (+%d runtime slack)",
			devs, delta, peak-before, slack)
	}
}

// TestSchedulerRunsUpdates checks the timers actually drive the periodic
// update pump: engines get their passes at their cadence and the
// accounting moves.
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
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("scheduler barely ran: engine_runs=%d tick_lag_count=%d",
				snap.SchedEngineRuns, snap.SchedTickLagNs.Count)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFirstUpdateDueWhenArmed: an engine's first update is due within an
// interval of its timer being armed, however long New spent building the
// fleet before that. Stamped when the engine was built, a thousand-device
// fleet's first tick was already overdue by New's own duration, and the
// tick-lag histogram's maximum recorded that for the life of the server.
// That defect shows on every start-up; a stall of the machine shows on
// some, so one clean start-up in three passes.
func TestFirstUpdateDueWhenArmed(t *testing.T) {
	var worst time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		s, err := New(Options{
			Devices: manyCodecs(1024),
			Logf:    func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		interval := s.engines[0].interval
		time.Sleep(2 * interval)
		lag := s.Snapshot().SchedTickLagNs
		s.Close()
		if lag.Count == 0 {
			t.Fatal("no engine pass in two intervals")
		}
		if worst = time.Duration(lag.Max()); worst < interval {
			return
		}
	}
	t.Fatalf("tick lag max %v after start-up, three times over; want under one interval", worst)
}

// TestStaleFireIsHarmless: nothing dedupes fires. The engine lock is held
// across the timer's deadline, so the fire's goroutine is started and
// waits; wakeLocked then promotes the timer to a wake that is already
// past, which schedules a second fire. Two passes run. The first serves
// what is due — a record whose samples now exist; the second finds nothing
// due: it retries nothing (the other park keeps the wake it had) and
// leaves the timer armed for min(next update, earliest wake).
func TestStaleFireIsHarmless(t *testing.T) {
	clk := vdev.NewManualClock(8000)
	srv, err := New(Options{
		Devices: []DeviceSpec{{Kind: "codec", Clock: clk}},
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	e := srv.engines[0]
	// Two blocked records: one 16 ms ahead, one two seconds ahead. (The
	// far one is still blocked at the end; srv.Close releases it.)
	replies := make(chan error, 2)
	for _, frames := range []int{128, 16000} {
		c, err := af.NewConn(srv.DialPipe())
		if err != nil {
			t.Fatal(err)
		}
		c.SetIOErrorHandler(func(*af.Conn, error) {})
		ac, err := c.CreateAC(0, 0, af.ACAttributes{})
		if err != nil {
			t.Fatal(err)
		}
		now, err := ac.GetTime()
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			_, _, err := ac.RecordSamples(now, make([]byte, frames), true)
			replies <- err
		}()
	}
	for srv.Snapshot().Devices[0].ParkedNow != 2 {
		time.Sleep(time.Millisecond)
	}

	e.mu.Lock()
	var near, far *parked
	for _, p := range e.parks {
		if near == nil || p.wake.Before(near.wake) {
			near, far = p, near
		} else {
			far = p
		}
	}
	e.nextUpdate = time.Now().Add(time.Hour) // only wakes are due in this test
	time.Sleep(time.Until(e.armed) + 5*time.Millisecond)
	// The fire is now waiting on e.mu.
	runs, farWake := srv.sm.schedTickLag.Snapshot().Count, far.wake
	clk.Advance(256)
	e.wakeLocked(near, -8000) // a wake one second ago beats any armed deadline
	if !e.armed.Equal(near.wake) {
		t.Fatal("a wake before the armed deadline did not promote the timer")
	}
	e.mu.Unlock()

	if err := <-replies; err != nil {
		t.Fatalf("the record whose samples exist: %v", err)
	}
	for deadline := time.Now().Add(time.Second); srv.sm.schedTickLag.Snapshot().Count < runs+2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d passes after a promoted stale fire, want 2", srv.sm.schedTickLag.Snapshot().Count-runs)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if got := srv.sm.schedTickLag.Snapshot().Count - runs; got != 2 {
		t.Errorf("%d passes, want exactly 2", got)
	}
	if len(e.parks) != 1 || e.parks[far.c] != far {
		t.Fatalf("%d parks left, want only the far one", len(e.parks))
	}
	if !far.wake.Equal(farWake) {
		t.Errorf("the park that was not due was retried: wake moved %v", far.wake.Sub(farWake))
	}
	if !e.armed.Equal(far.wake) {
		t.Errorf("timer armed for %v, want min(update %v, wake %v)", e.armed, e.nextUpdate, far.wake)
	}
}

// TestCloseStopsUpdatePlane: after Close returns no engine pass runs,
// every park has been discarded, a flash-hook re-hook still pending has
// been cancelled, and nothing armed keeps the server reachable — it is collected at the next GC, not an overload-sweep
// interval later.
func TestCloseStopsUpdatePlane(t *testing.T) {
	collected := make(chan struct{})
	func() {
		// The sentinel is reachable only through the server's Logf. (A
		// finalizer on the *Server itself would never run: the server and
		// its engines point at each other, and a cycle through a finalized
		// object is not collected.)
		sentinel := new([16]byte)
		runtime.SetFinalizer(sentinel, func(*[16]byte) { close(collected) })
		srv, err := New(Options{
			Devices: []DeviceSpec{
				{Kind: "phone", Clock: vdev.NewManualClock(8000)},
				{Kind: "codec", Clock: vdev.NewManualClock(8000)},
			},
			Logf: func(string, ...any) { runtime.KeepAlive(sentinel) },
			// A sweep every 30 s: if Close left it armed, the server would
			// stay reachable far past this test's patience.
			EvictGrace: time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		interval := srv.engines[0].interval

		// A blocked record on the codec, for Close to discard.
		c, err := af.NewConn(srv.DialPipe())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetIOErrorHandler(func(*af.Conn, error) {})
		ac, err := c.CreateAC(1, 0, af.ACAttributes{})
		if err != nil {
			t.Fatal(err)
		}
		now, err := ac.GetTime()
		if err != nil {
			t.Fatal(err)
		}
		blocked := make(chan error, 1)
		go func() {
			_, _, err := ac.RecordSamples(now, make([]byte, 800), true)
			blocked <- err
		}()
		for srv.Snapshot().Devices[1].ParkedNow == 0 {
			time.Sleep(time.Millisecond)
		}

		// A flash whose re-hook is due after Close, which cancels it.
		h, err := af.NewConn(srv.DialPipe())
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		h.SetIOErrorHandler(func(*af.Conn, error) {})
		if err := h.SelectEvents(0, af.MaskAllEvents); err != nil {
			t.Fatal(err)
		}
		if err := h.HookSwitch(0, true); err != nil {
			t.Fatal(err)
		}
		if err := h.FlashHook(0, int(2*interval/time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if err := h.Sync(); err != nil {
			t.Fatal(err)
		}

		srv.Close()
		if err := <-blocked; err == nil {
			t.Error("the blocked record completed; Close should have discarded it")
		}
		snap := srv.Snapshot()
		if err := snap.Check(true); err != nil {
			t.Errorf("after Close: %v", err)
		}
		if snap.Devices[1].ParksDiscarded != 1 {
			t.Errorf("Close discarded %d parks on the codec, want 1", snap.Devices[1].ParksDiscarded)
		}
		// Three intervals: the re-hook was due in the second of them.
		time.Sleep(3 * interval)
		if after := srv.Snapshot(); after.SchedEngineRuns != snap.SchedEngineRuns {
			t.Errorf("%d engine passes ran after Close returned", after.SchedEngineRuns-snap.SchedEngineRuns)
		}
		if srv.PhoneLine(0).OffHook() {
			t.Error("the flash's re-hook fired after Close")
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("closed server not collected: something armed still reaches it")
		}
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
// jobs to their own timers rather than to the control lock: while a
// second connection keeps the lock contended, a flash-hook's re-hook event
// still arrives at its duration, and the overload sweep still evicts a
// wedged consumer that has gone silent (so nothing but the sweep can judge
// it) within its grace.
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
