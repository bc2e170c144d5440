package af_test

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/internal/rig"
	"audiofile/internal/sampleconv"
	"audiofile/internal/vdev"
)

// stack is a full-stack test fixture: an in-process server with
// manual-clock simulated devices, reachable over a real Unix socket.
//
// Devices: 0 phone0 (telephone codec), 1 codec0 (loopback), 2 hifi0
// (stereo loopback), 3 hifi0L, 4 hifi0R.
type stack struct {
	srv      *aserver.Server
	codecClk *vdev.ManualClock
	hifiClk  *vdev.ManualClock
	phoneClk *vdev.ManualClock
	addr     string
}

func newStack(t *testing.T) *stack {
	r := &stack{
		codecClk: vdev.NewManualClock(8000),
		hifiClk:  vdev.NewManualClock(44100),
		phoneClk: vdev.NewManualClock(8000),
	}
	r.srv = rig.Server(t, aserver.Options{
		Vendor: "test",
		Logf:   t.Logf,
		Devices: []aserver.DeviceSpec{
			{Kind: "phone", Name: "phone0", Clock: r.phoneClk},
			{Kind: "codec", Name: "codec0", Clock: r.codecClk, Loopback: true},
			{Kind: "hifi", Name: "hifi0", Clock: r.hifiClk, Loopback: true},
		},
	})
	r.addr = rig.Listen(t, r.srv, "unix")
	return r
}

// dial opens a client connection to the stack's server.
func (r *stack) dial(t *testing.T) *af.Conn {
	t.Helper()
	nc, err := net.Dial("unix", r.addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := af.NewConn(nc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// step advances the codec clock by n ticks in hardware-window-sized steps
// with a server update after each, like wall time passing.
func (r *stack) step(n int) {
	for n > 0 {
		c := 512
		if c > n {
			c = n
		}
		r.codecClk.Advance(c)
		r.phoneClk.Advance(c)
		r.hifiClk.Advance(c * 44100 / 8000)
		r.srv.Sync()
		n -= c
	}
}

// primeRecording issues a tiny non-blocking record so the context counts
// as recording and the server's periodic record update runs from now on.
// Per §7.4.1, the record update only runs for devices with recording
// contexts, which "breaks clients that start up and immediately want to
// start recording in the past" — tests that step far ahead must prime.
func primeRecording(t *testing.T, ac *af.AC) {
	t.Helper()
	now, err := ac.GetTime()
	if err != nil {
		t.Fatal(err)
	}
	fb := 4 // enough for any encoding/channels used in these tests
	if _, _, err := ac.RecordSamples(now.Add(-fb), make([]byte, fb), false); err != nil {
		t.Fatal(err)
	}
}

func muTone(vals ...int16) []byte {
	out := make([]byte, len(vals))
	for i, v := range vals {
		out[i] = sampleconv.EncodeMuLaw(v)
	}
	return out
}

func TestSetupAndDeviceList(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	if c.Vendor() != "test" {
		t.Errorf("vendor = %q", c.Vendor())
	}
	devs := c.Devices()
	if len(devs) != 5 {
		t.Fatalf("got %d devices, want 5", len(devs))
	}
	if !devs[0].IsPhone() || devs[0].Name != "phone0" || devs[0].Type != af.DevPhone {
		t.Errorf("device 0 = %+v", devs[0])
	}
	if devs[1].IsPhone() || devs[1].PlaySampleFreq != 8000 || devs[1].PlayBufType != af.MU255 {
		t.Errorf("device 1 = %+v", devs[1])
	}
	if devs[2].Type != af.DevHiFi || devs[2].PlayNchannels != 2 || devs[2].PlayBufType != af.LIN16 {
		t.Errorf("device 2 = %+v", devs[2])
	}
	if devs[3].Type != af.DevMono || devs[4].Type != af.DevMono {
		t.Errorf("mono views = %+v / %+v", devs[3], devs[4])
	}
	if c.FindDefaultDevice() != 1 {
		t.Errorf("FindDefaultDevice = %d, want 1", c.FindDefaultDevice())
	}
	if c.FindPhoneDevice() != 0 {
		t.Errorf("FindPhoneDevice = %d, want 0", c.FindPhoneDevice())
	}
	// The server buffer size attribute is about 4 seconds.
	if devs[1].PlayNSamplesBuf != 32768 {
		t.Errorf("codec buffer = %d samples, want 32768", devs[1].PlayNSamplesBuf)
	}
}

func TestGetTime(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	r.codecClk.Advance(12345)
	got, err := c.GetTime(1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 12345 {
		t.Errorf("GetTime = %d, want 12345", got)
	}
	// Bad device yields a protocol error on this synchronous call.
	if _, err := c.GetTime(99); err == nil {
		t.Error("GetTime(99) did not fail")
	} else if pe, ok := err.(*af.ProtoError); !ok || pe.Code != 3 /* ErrDevice */ {
		t.Errorf("error = %v", err)
	}
}

func TestPlayRecordLoopback(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	ac, err := c.CreateAC(1, 0, af.ACAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	now, err := ac.GetTime()
	if err != nil {
		t.Fatal(err)
	}
	start := now.Add(100)
	data := muTone(1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000)
	if _, err := ac.PlaySamples(start, data); err != nil {
		t.Fatal(err)
	}
	r.step(300)
	buf := make([]byte, len(data))
	_, n, err := ac.RecordSamples(start, buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("recorded %d bytes, want %d", n, len(buf))
	}
	if !bytes.Equal(buf, data) {
		t.Errorf("loopback mismatch:\n got %v\nwant %v", buf, data)
	}
}

// TestFailedChangeAttributesChangesNothing: a ChangeACAttributes that is
// refused leaves the context as it was. Here the encoding is good and the
// channel count is one the mono codec does not have; the play behind it
// must still be taken as µ-law, which a second context records back.
func TestFailedChangeAttributesChangesNothing(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	ac, err := c.CreateAC(1, 0, af.ACAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	listener, err := c.CreateAC(1, 0, af.ACAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	var refused *af.ProtoError
	c.SetErrorHandler(func(_ *af.Conn, pe *af.ProtoError) { refused = pe })
	before := ac.Attributes
	ac.ChangeAttributes(af.ACEncoding|af.ACChannels, af.ACAttributes{Type: af.LIN16, Channels: 2}) //nolint:errcheck
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if refused == nil || refused.Code != 8 /* ErrMatch */ {
		t.Fatalf("the change drew %v, want BadMatch", refused)
	}
	ac.Attributes = before // the library mirrors what it asked for, not what it got

	now, err := ac.GetTime()
	if err != nil {
		t.Fatal(err)
	}
	start := now.Add(100)
	data := muTone(1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000)
	if _, err := ac.PlaySamples(start, data); err != nil {
		t.Fatal(err)
	}
	r.step(300)
	buf := make([]byte, len(data))
	if _, n, err := listener.RecordSamples(start, buf, true); err != nil || n != len(buf) {
		t.Fatalf("recorded %d bytes, %v", n, err)
	}
	if !bytes.Equal(buf, data) {
		t.Errorf("the play after a refused change was not taken as µ-law:\n got %v\nwant %v", buf, data)
	}
}

// TestSubscribedContextKeepsItsEncoding: a subscription's chunks arrive
// in the encoding its context subscribed with, so the server refuses to
// change a subscribed context's encoding (BadMatch) — to LIN16, and to
// ADPCM4, which could not have subscribed — and accepts a "change" to
// the encoding it has. The chunks stay µ-law, one byte a frame.
func TestSubscribedContextKeepsItsEncoding(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	ac, err := c.CreateAC(1, 0, af.ACAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := ac.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	var refused []uint8
	c.SetErrorHandler(func(_ *af.Conn, pe *af.ProtoError) { refused = append(refused, pe.Code) })
	for _, enc := range []af.Encoding{af.LIN16, af.ADPCM4, af.MU255} {
		ac.ChangeAttributes(af.ACEncoding, af.ACAttributes{Type: enc}) //nolint:errcheck
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(refused) != 2 || refused[0] != 8 || refused[1] != 8 /* ErrMatch */ {
		t.Fatalf("the changes drew %v, want BadMatch twice", refused)
	}
	r.step(1024)
	first, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	second, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	if frames := af.TimeSub(second.Time, first.Time); len(first.Data) != int(frames) {
		t.Errorf("a chunk of %d frames carried %d bytes, want one a frame (µ-law)", frames, len(first.Data))
	}
}

func TestSilenceWhereNothingPlayed(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	ac, _ := c.CreateAC(1, 0, af.ACAttributes{})
	r.step(500)
	buf := make([]byte, 100)
	_, n, err := ac.RecordSamples(100, buf, true)
	if err != nil || n != 100 {
		t.Fatal(err, n)
	}
	for i, b := range buf {
		if b != 0xFF {
			t.Fatalf("byte %d = %#x, want µ-law silence", i, b)
		}
	}
}

func TestPlayChunkingLargeRequest(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	ac, _ := c.CreateAC(1, 0, af.ACAttributes{})
	primeRecording(t, ac)
	// 20000 bytes = 2.5 chunks at 8 KiB.
	data := make([]byte, 20000)
	for i := range data {
		data[i] = sampleconv.EncodeMuLaw(int16(i%8000 - 4000))
	}
	now, _ := ac.GetTime()
	start := now.Add(50)
	if _, err := ac.PlaySamples(start, data); err != nil {
		t.Fatal(err)
	}
	r.step(22000)
	buf := make([]byte, len(data))
	_, n, err := ac.RecordSamples(start, buf, true)
	if err != nil || n != len(buf) {
		t.Fatal(err, n)
	}
	if !bytes.Equal(buf, data) {
		for i := range buf {
			if buf[i] != data[i] {
				t.Fatalf("first mismatch at %d: %#x != %#x", i, buf[i], data[i])
			}
		}
	}
}

func TestRecordNonBlockingPartial(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	ac, _ := c.CreateAC(1, 0, af.ACAttributes{})
	r.step(200)
	now, _ := ac.GetTime()
	buf := make([]byte, 100)
	// Start 50 in the past: only 50 bytes are available right now.
	_, n, err := ac.RecordSamples(now.Add(-50), buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Errorf("non-blocking record returned %d bytes, want 50", n)
	}
}

func TestRecordBlockingWaitsForData(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	ac, _ := c.CreateAC(1, 0, af.ACAttributes{})
	r.step(100)
	now, _ := ac.GetTime()

	doneCh := make(chan struct{})
	var n int
	go func() {
		defer close(doneCh)
		_, n, _ = ac.RecordSamples(now, make([]byte, 400), true)
	}()
	// The record must not complete until time advances past now+400.
	select {
	case <-doneCh:
		t.Fatal("blocking record returned before data existed")
	case <-time.After(50 * time.Millisecond):
	}
	r.step(600)
	select {
	case <-doneCh:
	case <-time.After(2 * time.Second):
		t.Fatal("blocking record never completed")
	}
	if n != 400 {
		t.Errorf("recorded %d bytes, want 400", n)
	}
}

func TestRequestsQueueBehindBlockedRecord(t *testing.T) {
	// FIFO semantics: while a blocking record is parked, later requests
	// on the same connection wait their turn.
	r := newStack(t)
	c := r.dial(t)
	ac, _ := c.CreateAC(1, 0, af.ACAttributes{})
	r.step(100)
	now, _ := ac.GetTime()

	type result struct {
		n   int
		t2  af.ATime
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		_, n, err := ac.RecordSamples(now, make([]byte, 200), true)
		t2, err2 := c.GetTime(1)
		if err == nil {
			err = err2
		}
		resCh <- result{n, t2, err}
	}()
	time.Sleep(50 * time.Millisecond)
	r.step(400)
	select {
	case res := <-resCh:
		if res.err != nil || res.n != 200 {
			t.Fatalf("%+v", res)
		}
		if af.TimeBefore(res.t2, 400) {
			t.Errorf("GetTime after blocked record = %d", res.t2)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued request never completed")
	}
}

func TestMixingTwoConnections(t *testing.T) {
	r := newStack(t)
	c1 := r.dial(t)
	c2 := r.dial(t)
	ac1, _ := c1.CreateAC(1, 0, af.ACAttributes{})
	ac2, _ := c2.CreateAC(1, 0, af.ACAttributes{})
	now, _ := ac1.GetTime()
	start := now.Add(100)
	tone := muTone(3000, 3000, 3000, 3000)
	if _, err := ac1.PlaySamples(start, tone); err != nil {
		t.Fatal(err)
	}
	if _, err := ac2.PlaySamples(start, tone); err != nil {
		t.Fatal(err)
	}
	r.step(300)
	buf := make([]byte, 4)
	ac1.RecordSamples(start, buf, true)
	for i := range buf {
		v := int(sampleconv.DecodeMuLaw(buf[i]))
		if v < 5500 || v > 6600 {
			t.Errorf("mixed sample %d = %d, want ~6000", i, v)
		}
	}
}

func TestPreemptionAcrossConnections(t *testing.T) {
	r := newStack(t)
	c1 := r.dial(t)
	c2 := r.dial(t)
	ac1, _ := c1.CreateAC(1, 0, af.ACAttributes{})
	ac2, _ := c2.CreateAC(1, proto_ACPreemption, af.ACAttributes{Preempt: true})
	now, _ := ac1.GetTime()
	start := now.Add(100)
	ac1.PlaySamples(start, muTone(8000, 8000, 8000, 8000))
	c1.Sync()
	ac2.PlaySamples(start, muTone(500, 500, 500, 500))
	r.step(300)
	buf := make([]byte, 4)
	ac1.RecordSamples(start, buf, true)
	v := int(sampleconv.DecodeMuLaw(buf[0]))
	if v < 400 || v > 600 {
		t.Errorf("preempted sample = %d, want ~500", v)
	}
}

const proto_ACPreemption = af.ACPreemption

func TestPlayGainAttribute(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	ac, _ := c.CreateAC(1, af.ACPlayGain, af.ACAttributes{PlayGain: -6})
	now, _ := ac.GetTime()
	start := now.Add(100)
	ac.PlaySamples(start, muTone(8000, 8000))
	r.step(300)
	buf := make([]byte, 2)
	ac.RecordSamples(start, buf, true)
	v := int(sampleconv.DecodeMuLaw(buf[0]))
	if v < 3600 || v > 4500 {
		t.Errorf("gained sample = %d, want ~4000", v)
	}
	// ChangeACAttributes back to 0 dB.
	if err := ac.ChangeAttributes(af.ACPlayGain, af.ACAttributes{PlayGain: 0}); err != nil {
		t.Fatal(err)
	}
	now, _ = ac.GetTime()
	start2 := now.Add(100)
	ac.PlaySamples(start2, muTone(8000, 8000))
	r.step(300)
	ac.RecordSamples(start2, buf, true)
	v = int(sampleconv.DecodeMuLaw(buf[0]))
	if v < 7500 || v > 8500 {
		t.Errorf("post-change sample = %d, want ~8000", v)
	}
}

func TestBigEndianClient(t *testing.T) {
	r := newStack(t)
	nc, err := net.Dial("unix", r.addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := af.NewConnRoute(nc, true, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if len(c.Devices()) != 5 {
		t.Fatalf("BE client saw %d devices", len(c.Devices()))
	}
	// Play lin16 stereo on the hifi loopback with big-endian sample data.
	ac, err := c.CreateAC(2, af.ACEndian, af.ACAttributes{BigEndian: true})
	if err != nil {
		t.Fatal(err)
	}
	primeRecording(t, ac)
	now, err := ac.GetTime()
	if err != nil {
		t.Fatal(err)
	}
	start := now.Add(500)
	// 4 stereo frames, big-endian int16 pattern.
	frames := []int16{100, -100, 2000, -2000, 30000, -30000, 1, -1}
	data := make([]byte, 16)
	for i, v := range frames {
		data[2*i] = byte(uint16(v) >> 8) // big endian
		data[2*i+1] = byte(uint16(v))
	}
	if _, err := ac.PlaySamples(start, data); err != nil {
		t.Fatal(err)
	}
	r.step(2000)
	buf := make([]byte, 16)
	_, n, err := ac.RecordSamples(start, buf, true)
	if err != nil || n != 16 {
		t.Fatal(err, n)
	}
	if !bytes.Equal(buf, data) {
		t.Errorf("BE round trip mismatch:\n got %v\nwant %v", buf, data)
	}
}

func TestPhoneEventsAndControl(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	if err := c.SelectEvents(0, af.MaskAllEvents); err != nil {
		t.Fatal(err)
	}
	c.Sync()

	line := r.srv.PhoneLine(0)
	line.RingPulse()
	r.srv.Sync()
	ev, err := c.NextEvent()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Code != af.EventPhoneRing || ev.Detail != 1 || ev.Device != 0 {
		t.Fatalf("event = %+v, want ring on device 0", ev)
	}

	// Answer: hookswitch event plus ring-stopped event.
	if err := c.HookSwitch(0, true); err != nil {
		t.Fatal(err)
	}
	ev, _ = c.NextEvent()
	if ev.Code != af.EventPhoneHookSwitch || ev.Detail != 1 {
		t.Fatalf("event = %+v, want hook off", ev)
	}
	ev, _ = c.NextEvent()
	if ev.Code != af.EventPhoneRing || ev.Detail != 0 {
		t.Fatalf("event = %+v, want ring stopped", ev)
	}

	offHook, loop, err := c.QueryPhone(0)
	if err != nil || !offHook || loop {
		t.Fatalf("QueryPhone = %v %v %v", offHook, loop, err)
	}

	// Remote caller punches digits; DTMF events arrive.
	line.RemoteDigits("12")
	r.srv.Sync()
	var digits []byte
	for i := 0; i < 2; i++ {
		ev, err := c.NextEvent()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Code == af.EventPhoneDTMF {
			digits = append(digits, ev.Detail)
		}
	}
	if string(digits) != "12" {
		t.Errorf("digits = %q", digits)
	}

	// Loop current from the extension phone.
	line.SetExtensionHook(true)
	r.srv.Sync()
	ev, _ = c.NextEvent()
	if ev.Code != af.EventPhoneLoop || ev.Detail != 1 {
		t.Fatalf("event = %+v, want loop on", ev)
	}

	// Hang up.
	c.HookSwitch(0, false)
	ev, _ = c.NextEvent()
	if ev.Code != af.EventPhoneHookSwitch || ev.Detail != 0 {
		t.Fatalf("event = %+v, want hook on", ev)
	}

	// Telephony requests against a non-phone device are BadMatch, seen at
	// the next synchronous request as an async error.
	var asyncErr atomic.Value
	c.SetErrorHandler(func(_ *af.Conn, pe *af.ProtoError) { asyncErr.Store(pe) })
	c.HookSwitch(1, true)
	c.Sync()
	if pe, _ := asyncErr.Load().(*af.ProtoError); pe == nil || pe.Code != 8 /* ErrMatch */ {
		t.Errorf("async error = %v", asyncErr.Load())
	}
}

func TestEventsNotDeliveredUnselected(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	r.srv.PhoneLine(0).RingPulse()
	r.srv.Sync()
	n, err := c.Pending()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("unselected client got %d events", n)
	}
}

func TestAtoms(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	// Built-in atom resolves by name to its predefined id.
	a, err := c.InternAtom("STRING", false)
	if err != nil || a != af.AtomSTRING {
		t.Fatalf("InternAtom(STRING) = %v, %v", a, err)
	}
	name, err := c.GetAtomName(af.AtomLastNumberDialed)
	if err != nil || name != "LAST_NUMBER_DIALED" {
		t.Fatalf("GetAtomName = %q, %v", name, err)
	}
	// New atom.
	a1, err := c.InternAtom("MY_THING", false)
	if err != nil || a1 == 0 {
		t.Fatal(a1, err)
	}
	a2, _ := c.InternAtom("MY_THING", false)
	if a2 != a1 {
		t.Errorf("re-intern = %d, want %d", a2, a1)
	}
	// onlyIfExists.
	if a, _ := c.InternAtom("NOT_THERE", true); a != af.AtomNone {
		t.Errorf("onlyIfExists returned %d", a)
	}
	// Atoms are server-global: a second client sees the same id.
	c2 := r.dial(t)
	a3, _ := c2.InternAtom("MY_THING", true)
	if a3 != a1 {
		t.Errorf("cross-client atom = %d, want %d", a3, a1)
	}
	// Bad atom name lookup errors.
	if _, err := c.GetAtomName(9999); err == nil {
		t.Error("GetAtomName(9999) did not fail")
	}
}

func TestProperties(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	watcher := r.dial(t)
	watcher.SelectEvents(0, af.MaskPropertyChange)
	watcher.Sync()

	err := c.ChangeProperty(0, af.AtomLastNumberDialed, af.AtomSTRING, 8,
		af.PropModeReplace, []byte("6175551212"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.GetProperty(0, af.AtomLastNumberDialed, af.AtomSTRING, false)
	if err != nil {
		t.Fatal(err)
	}
	if v.Type != af.AtomSTRING || v.Format != 8 || string(v.Data) != "6175551212" {
		t.Errorf("GetProperty = %+v", v)
	}

	// The watcher gets a PropertyChange event.
	ev, err := watcher.NextEvent()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Code != af.EventPropertyChange || af.Atom(ev.Value) != af.AtomLastNumberDialed {
		t.Errorf("event = %+v", ev)
	}

	// Append mode.
	c.ChangeProperty(0, af.AtomLastNumberDialed, af.AtomSTRING, 8, af.PropModeAppend, []byte("#9"))
	v, _ = c.GetProperty(0, af.AtomLastNumberDialed, af.AtomSTRING, false)
	if string(v.Data) != "6175551212#9" {
		t.Errorf("append = %q", v.Data)
	}
	// Prepend mode.
	c.ChangeProperty(0, af.AtomLastNumberDialed, af.AtomSTRING, 8, af.PropModePrepend, []byte("1-"))
	v, _ = c.GetProperty(0, af.AtomLastNumberDialed, af.AtomSTRING, false)
	if string(v.Data) != "1-6175551212#9" {
		t.Errorf("prepend = %q", v.Data)
	}

	// Type mismatch: data withheld, actual type reported.
	v, _ = c.GetProperty(0, af.AtomLastNumberDialed, af.AtomINTEGER, false)
	if v.Type != af.AtomSTRING || v.Data != nil {
		t.Errorf("mismatch get = %+v", v)
	}

	// ListProperties.
	atoms, err := c.ListProperties(0)
	if err != nil || len(atoms) != 1 || atoms[0] != af.AtomLastNumberDialed {
		t.Errorf("ListProperties = %v, %v", atoms, err)
	}

	// Get with delete.
	v, _ = c.GetProperty(0, af.AtomLastNumberDialed, af.AtomNone, true)
	if string(v.Data) != "1-6175551212#9" {
		t.Errorf("get-delete = %q", v.Data)
	}
	v, _ = c.GetProperty(0, af.AtomLastNumberDialed, af.AtomNone, false)
	if v.Type != af.AtomNone {
		t.Errorf("deleted property still there: %+v", v)
	}

	// DeleteProperty on a property set again.
	c.ChangeProperty(0, af.AtomLastNumberDialed, af.AtomSTRING, 8, af.PropModeReplace, []byte("x"))
	c.DeleteProperty(0, af.AtomLastNumberDialed)
	c.Sync()
	if atoms, _ := c.ListProperties(0); len(atoms) != 0 {
		t.Errorf("property survived delete: %v", atoms)
	}
}

func TestGainControls(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	if err := c.SetOutputGain(1, -12); err != nil {
		t.Fatal(err)
	}
	cur, minG, maxG, err := c.QueryOutputGain(1)
	if err != nil || cur != -12 || minG != -30 || maxG != 30 {
		t.Fatalf("QueryOutputGain = %d %d %d %v", cur, minG, maxG, err)
	}
	c.SetInputGain(1, 6)
	cur, _, _, _ = c.QueryInputGain(1)
	if cur != 6 {
		t.Errorf("input gain = %d, want 6", cur)
	}
	// Out-of-range gain produces an async error.
	var got atomic.Value
	c.SetErrorHandler(func(_ *af.Conn, pe *af.ProtoError) { got.Store(pe) })
	c.SetOutputGain(1, 99)
	c.Sync()
	if pe, _ := got.Load().(*af.ProtoError); pe == nil || pe.Code != 2 /* ErrValue */ {
		t.Errorf("async error = %v", got.Load())
	}
}

func TestAccessControl(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	enabled, hosts, err := c.ListHosts()
	if err != nil {
		t.Fatal(err)
	}
	if enabled {
		t.Error("access control enabled by default")
	}
	if len(hosts) != 2 {
		t.Errorf("default host list = %v", hosts)
	}
	if err := c.AddHost(af.HostEntry{Family: af.FamilyInternet, Addr: []byte{10, 1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	c.SetAccessControl(true)
	enabled, hosts, _ = c.ListHosts()
	if !enabled || len(hosts) != 3 {
		t.Errorf("after add: enabled=%v hosts=%v", enabled, hosts)
	}
	c.RemoveHost(af.HostEntry{Family: af.FamilyInternet, Addr: []byte{10, 1, 2, 3}})
	_, hosts, _ = c.ListHosts()
	if len(hosts) != 2 {
		t.Errorf("after remove: %v", hosts)
	}
	c.SetAccessControl(false)
	c.Sync()
}

func TestAccessControlRefusesTCP(t *testing.T) {
	r := newStack(t)
	l, err := r.srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tcpAddr := l.Addr().String()

	// Reachable before lockdown.
	nc, err := net.Dial("tcp", tcpAddr)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := af.NewConn(nc)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	// Remove the loopback entries and enable access control.
	_, hosts, _ := c1.ListHosts()
	for _, h := range hosts {
		c1.RemoveHost(h)
	}
	c1.SetAccessControl(true)
	c1.Sync()

	nc2, err := net.Dial("tcp", tcpAddr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := af.NewConn(nc2); err == nil {
		t.Error("connection allowed despite empty access list")
	}

	// Unix connections are always allowed.
	c3 := r.dial(t)
	if _, err := c3.GetTime(1); err != nil {
		t.Errorf("unix connection rejected: %v", err)
	}
}

func TestHousekeepingRequests(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	if err := c.NoOp(); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	present, err := c.QueryExtension("TELEPHONE-2")
	if err != nil || present {
		t.Errorf("QueryExtension = %v, %v", present, err)
	}
	exts, err := c.ListExtensions()
	if err != nil || len(exts) != 0 {
		t.Errorf("ListExtensions = %v, %v", exts, err)
	}
	// Synchronous mode round-trips every request.
	c.Synchronize(true)
	if err := c.NoOp(); err != nil {
		t.Fatal(err)
	}
	c.Synchronize(false)
}

func TestFreeACAndUseAfterFree(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	ac, _ := c.CreateAC(1, 0, af.ACAttributes{})
	if err := ac.Free(); err != nil {
		t.Fatal(err)
	}
	// Playing on a freed AC produces a BadAC protocol error.
	_, err := ac.PlaySamples(0, muTone(1))
	if pe, ok := err.(*af.ProtoError); !ok || pe.Code != 4 /* ErrAC */ {
		t.Errorf("play on freed AC: %v", err)
	}
}

func TestPassThrough(t *testing.T) {
	// Audio arriving on the phone line is patched through to the local
	// codec device (and audible on its sink).
	sink := &vdev.CaptureSink{}
	phoneClk := vdev.NewManualClock(8000)
	codecClk := vdev.NewManualClock(8000)
	srv := rig.Server(t, aserver.Options{
		Logf: t.Logf,
		Devices: []aserver.DeviceSpec{
			{Kind: "phone", Name: "phone0", Clock: phoneClk},
			{Kind: "codec", Name: "codec0", Clock: codecClk, Sink: sink},
		},
	})
	cc := srv.DialPipe()
	c, err := af.NewConn(cc)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.HookSwitch(0, true) // answer so the line audio is audible
	if err := c.EnablePassThrough(0, 1); err != nil {
		t.Fatal(err)
	}
	c.Sync()

	tone := make([]byte, 1600)
	for i := range tone {
		tone[i] = sampleconv.EncodeMuLaw(int16(6000))
	}
	srv.PhoneLine(0).RemoteAudio(tone)
	for i := 0; i < 10; i++ {
		phoneClk.Advance(400)
		codecClk.Advance(400)
		srv.Sync()
	}
	got, _ := sink.Bytes()
	var hot int
	for _, b := range got {
		if v := sampleconv.DecodeMuLaw(b); v > 4000 {
			hot++
		}
	}
	if hot < 1000 {
		t.Errorf("pass-through delivered %d hot samples of %d, want >= 1000", hot, len(got))
	}

	// Mismatched devices are rejected.
	var asyncErr atomic.Value
	c.SetErrorHandler(func(_ *af.Conn, pe *af.ProtoError) { asyncErr.Store(pe) })
	c.EnablePassThrough(0, 0)
	c.Sync()
	if pe, _ := asyncErr.Load().(*af.ProtoError); pe == nil || pe.Code != 8 {
		t.Errorf("self pass-through error = %v", asyncErr.Load())
	}
}

func TestMonoViewsOverProtocol(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	acL, err := c.CreateAC(3, 0, af.ACAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	acS, _ := c.CreateAC(2, 0, af.ACAttributes{})
	primeRecording(t, acS)
	now, _ := acL.GetTime()
	start := now.Add(1000)
	// Mono lin16 frames for the left channel.
	data := make([]byte, 8)
	for i := 0; i < 4; i++ {
		data[2*i] = 0x39
		data[2*i+1] = 0x05 // 0x0539 = 1337
	}
	if _, err := acL.PlaySamples(start, data); err != nil {
		t.Fatal(err)
	}
	r.step(3000)
	// Record from the stereo device: left carries the tone, right silence.
	buf := make([]byte, 16)
	_, n, err := acS.RecordSamples(start, buf, true)
	if err != nil || n != 16 {
		t.Fatal(err, n)
	}
	for i := 0; i < 4; i++ {
		l := int16(uint16(buf[4*i]) | uint16(buf[4*i+1])<<8)
		rv := int16(uint16(buf[4*i+2]) | uint16(buf[4*i+3])<<8)
		if l != 1337 || rv != 0 {
			t.Errorf("frame %d = (%d, %d), want (1337, 0)", i, l, rv)
		}
	}
}

func TestManyClientsConcurrently(t *testing.T) {
	r := newStack(t)
	const N = 8
	errCh := make(chan error, N)
	for i := 0; i < N; i++ {
		go func(i int) {
			nc, err := net.Dial("unix", r.addr)
			if err != nil {
				errCh <- err
				return
			}
			c, err := af.NewConn(nc)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			ac, err := c.CreateAC(1, 0, af.ACAttributes{})
			if err != nil {
				errCh <- err
				return
			}
			for j := 0; j < 50; j++ {
				if _, err := c.GetTime(1); err != nil {
					errCh <- err
					return
				}
				now, _ := ac.GetTime()
				if _, err := ac.PlaySamples(now.Add(100+i), muTone(100, 200, 300)); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}(i)
	}
	go func() {
		for i := 0; i < 40; i++ {
			r.step(100)
			time.Sleep(time.Millisecond)
		}
	}()
	for i := 0; i < N; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}
