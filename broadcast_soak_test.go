// Broadcast fan-out soak: one channel versus a mixed listener
// population — healthy subscribers on clean pipes, a subscriber behind a
// write-fragmenting transport, a subscriber whose connection resets
// mid-stream, and a wedged subscriber that never reads a byte — while a
// player streams a recognizable ramp through the device mix. The
// assertions are the encode-once contract under fire: the encoder's work
// never depends on (or waits for) any listener, the wedged listener is
// evicted by the ordinary overload machinery while healthy listeners
// receive a gap-free, content-correct stream, and the broadcast
// conservation laws hold exactly once the dust settles.
package audiofile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/internal/netsim"
	"audiofile/internal/proto"
	"audiofile/internal/rig"
	"audiofile/internal/vdev"
)

// ramp stamps device time into a µ-law byte. 251 is prime (so the
// pattern never phase-locks with chunk or block sizes) and the values
// 0..250 never collide with MU255 silence (0xFF), letting a listener
// classify every received byte as "my audio" or "silence".
func ramp(t uint32) byte { return byte(t % 251) }

// playRampBlocks streams non-overlapping ramp-stamped blocks a little
// ahead of device time, so the mix holds ramp(t) at every frame t the
// player covered and silence elsewhere. Returns on the first error
// (the soak's reset clients expect one).
func playRampBlocks(ac *af.AC, blocks, blockFrames int, fail func(error)) {
	data := make([]byte, blockFrames)
	var next af.ATime
	for j := 0; j < blocks; j++ {
		now, err := ac.GetTime()
		if err != nil {
			fail(fmt.Errorf("player GetTime %d: %w", j, err))
			return
		}
		t0 := now.Add(512)
		if af.TimeBefore(t0, next) {
			t0 = next // never overlap: two blocks would double-mix
		}
		for i := range data {
			data[i] = ramp(uint32(t0) + uint32(i))
		}
		if _, err := ac.PlaySamples(t0, data); err != nil {
			fail(fmt.Errorf("player play %d: %w", j, err))
			return
		}
		next = t0.Add(blockFrames)
	}
}

// collectChunks reads n chunks from a subscription, asserting the
// stream contract as it goes: contiguous sequence numbers and every
// byte either the ramp for its device time or silence. Returns the
// number of ramp (non-silence) bytes seen and whether the chunks read
// crossed the 2^32 device-time wrap.
func collectChunks(t *testing.T, sub *af.Subscription, n int, fail func(error)) (rampBytes int, crossed bool) {
	t.Helper()
	var first af.ATime
	haveSeq := false
	var wantSeq uint16
	for got := 0; got < n; got++ {
		ch, err := sub.Next()
		if err != nil {
			fail(fmt.Errorf("subscriber chunk %d: %w", got, err))
			return rampBytes, crossed
		}
		if got == 0 {
			first = ch.Time
		}
		crossed = af.TimeBefore(first, 0) && !af.TimeBefore(ch.Time, 0)
		if haveSeq && ch.Seq != wantSeq {
			fail(fmt.Errorf("subscriber chunk %d: seq %d, want %d (gap)", got, ch.Seq, wantSeq))
			return rampBytes, crossed
		}
		haveSeq, wantSeq = true, ch.Seq+1
		if len(ch.Data) == 0 || len(ch.Data)%4 != 0 {
			fail(fmt.Errorf("subscriber chunk %d: %d bytes, want nonzero multiple of 4", got, len(ch.Data)))
			return rampBytes, crossed
		}
		for i, b := range ch.Data {
			if b == 0xFF { // µ-law silence: region the player did not cover
				continue
			}
			if want := ramp(uint32(ch.Time) + uint32(i)); b != want {
				fail(fmt.Errorf("subscriber chunk %d (time %d): byte %d = %#x, want %#x or silence",
					got, ch.Time, i, b, want))
				return rampBytes, crossed
			}
			rampBytes++
		}
	}
	return rampBytes, crossed
}

// TestBroadcastBasic: one player, one subscriber, a clean transport.
// The subscribed stream must be gap-free, time-stamped, and carry the
// played audio byte-exactly (µ-law mix of a single source round-trips).
func TestBroadcastBasic(t *testing.T) {
	const rate = 8000
	clk := vdev.NewManualClock(rate)
	clk.Set(1<<32 - rate) // 1 s before the wrap
	srv := rig.Server(t, aserver.Options{
		Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Clock: clk}},
	})
	rig.Step(t, srv, 100*time.Microsecond, clk)

	var firstErr rig.FirstError
	fail := firstErr.Fail

	var wg sync.WaitGroup
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
		playRampBlocks(ac, 120, 2048, fail)
	}()

	conn, err := rig.Client(srv.DialPipe())
	if err != nil {
		t.Fatal(err)
	}
	ac, err := conn.CreateAC(0, 0, af.ACAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	sub, start, err := ac.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	rampBytes, crossed := collectChunks(t, sub, 60, fail)
	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Next(); err == nil {
		t.Error("Next succeeded on an unsubscribed subscription")
	}
	conn.Close()

	wg.Wait()
	if err := firstErr.Err(); err != nil {
		t.Fatal(err)
	}
	if rampBytes == 0 {
		t.Errorf("subscriber starting at device time %d saw only silence; the played ramp never reached the channel", start)
	}
	if !crossed {
		t.Errorf("subscriber starting at device time %d never crossed the wrap", start)
	}

	s := drainSnapshot(t, srv)
	if err := s.Check(true); err != nil {
		t.Error(err)
	}
	d := s.Devices[0]
	if d.BcastChunks == 0 || d.BcastMsgs == 0 {
		t.Errorf("broadcast counters did not move: chunks=%d msgs=%d", d.BcastChunks, d.BcastMsgs)
	}
	// One subscriber, one wire format: encode-once is exact equality.
	if d.BcastEncodes != d.BcastChunks {
		t.Errorf("encodes %d != chunks %d with a single format", d.BcastEncodes, d.BcastChunks)
	}
}

// TestBroadcastSubscribeErrors: the subscription state machine's edges —
// double subscription on a device, compressed contexts, unsubscribe
// idempotence, and FreeAC releasing the server-side slot.
func TestBroadcastSubscribeErrors(t *testing.T) {
	srv := rig.Server(t, aserver.Options{
		Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Clock: vdev.NewManualClock(8000)}},
	})
	conn, err := rig.Client(srv.DialPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	wantCode := func(err error, code uint8, what string) {
		t.Helper()
		var pe *af.ProtoError
		if !errors.As(err, &pe) || pe.Code != code {
			t.Errorf("%s: err = %v, want proto error code %d", what, err, code)
		}
	}

	ac, err := conn.CreateAC(0, 0, af.ACAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := ac.Subscribe()
	if err != nil {
		t.Fatal(err)
	}

	// A second subscription on the same device over the same connection
	// would be unroutable (chunks carry only the channel id): BadValue.
	ac2, err := conn.CreateAC(0, 0, af.ACAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = ac2.Subscribe()
	wantCode(err, proto.ErrValue, "second subscription on device")

	// Stateful coders cannot be shared across listeners: BadMatch.
	adpcm, err := conn.CreateAC(0, af.ACEncoding, af.ACAttributes{Type: af.ADPCM4})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = adpcm.Subscribe()
	wantCode(err, proto.ErrMatch, "ADPCM subscription")

	// Unsubscribe releases the device slot and is idempotent.
	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if err := sub.Unsubscribe(); err != nil {
		t.Errorf("second Unsubscribe: %v, want nil", err)
	}
	sub2, _, err := ac2.Subscribe()
	if err != nil {
		t.Fatalf("subscribe after unsubscribe freed the slot: %v", err)
	}

	// Freeing the context tears the subscription down server-side too:
	// the slot opens up and the local subscription is dead.
	if err := ac2.Free(); err != nil {
		t.Fatal(err)
	}
	if _, err := sub2.Next(); err == nil {
		t.Error("Next succeeded on a subscription whose context was freed")
	}
	if _, _, err := ac.Subscribe(); err != nil {
		t.Fatalf("subscribe after FreeAC released the slot: %v", err)
	}

	s := drainSnapshot(t, func() *aserver.Server { conn.Close(); return srv }())
	if err := s.Check(true); err != nil {
		t.Error(err)
	}
}

// TestBroadcastMultiGroupTeardown: one client holds three groups on one
// engine — hifi0 and its two mono views — while a second client listens
// on hifi0 beside it. The first client's close drops all three of its
// subscriptions in one teardown, and the groups it alone held with them;
// the survivor's stream must run on gap-free, and the channel's books
// balance once both are gone.
func TestBroadcastMultiGroupTeardown(t *testing.T) {
	clk := vdev.NewManualClock(44100)
	srv := rig.Server(t, aserver.Options{
		Devices: []aserver.DeviceSpec{{Kind: "hifi", Name: "hifi0", Clock: clk}},
	})
	rig.Step(t, srv, time.Millisecond, clk)
	subsNow := func() int64 { return srv.Snapshot().Devices[0].BcastSubs }
	subscribe := func(conn *af.Conn, device string) *af.Subscription {
		t.Helper()
		for _, d := range conn.Devices() {
			if d.Name != device {
				continue
			}
			ac, err := conn.CreateAC(d.Index, 0, af.ACAttributes{})
			if err != nil {
				t.Fatal(err)
			}
			sub, _, err := ac.Subscribe()
			if err != nil {
				t.Fatal(err)
			}
			return sub
		}
		t.Fatalf("no device %s", device)
		return nil
	}

	leaver, err := rig.Client(srv.DialPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer leaver.Close()
	var held []*af.Subscription
	for _, device := range []string{"hifi0", "hifi0L", "hifi0R"} {
		held = append(held, subscribe(leaver, device))
	}
	survivor, err := rig.Client(srv.DialPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Close()
	sub := subscribe(survivor, "hifi0")
	if n := subsNow(); n != 4 {
		t.Fatalf("bcast_subs = %d with four subscriptions, want 4", n)
	}

	// The survivor reads throughout, checking Seq, until told to stop.
	var chunks atomic.Int64
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		haveSeq := false
		var wantSeq uint16
		for {
			ch, err := sub.Next()
			if err != nil {
				done <- fmt.Errorf("survivor chunk %d: %w", chunks.Load(), err)
				return
			}
			if haveSeq && ch.Seq != wantSeq {
				done <- fmt.Errorf("survivor chunk %d: seq %d, want %d (gap)", chunks.Load(), ch.Seq, wantSeq)
				return
			}
			haveSeq, wantSeq = true, ch.Seq+1
			chunks.Add(1)
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
		}
	}()

	for i := 0; i < 20; i++ {
		if _, err := held[0].Next(); err != nil {
			t.Fatal(err)
		}
	}
	leaver.Close()
	waitFor(t, 10*time.Second, "the leaver's subscriptions to drop", func() bool { return subsNow() == 1 })
	past := chunks.Load() + 20
	waitFor(t, 10*time.Second, "the survivor to read past the teardown", func() bool { return chunks.Load() >= past })
	if n := subsNow(); n != 1 {
		t.Errorf("bcast_subs = %d while the survivor listens, want 1", n)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	survivor.Close()
	if err := drainSnapshot(t, srv).Check(true); err != nil {
		t.Error(err)
	}
}

// TestBroadcastSoak: the fan-out under fire. A player streams the ramp
// for the whole run while four kinds of listeners subscribe: two healthy
// (clean pipe), one behind a fragmenting transport, one whose transport
// resets mid-stream, and one wedged raw-socket listener that never reads
// a byte. The wedged one must be evicted by the ordinary overload
// machinery without the encoder ever stalling; the healthy ones must see
// a gap-free, content-correct stream throughout.
func TestBroadcastSoak(t *testing.T) {
	const (
		rate         = 8000
		simSpan      = 20 * rate // frames of simulated device time
		clientBudget = 32 << 10
		evictGrace   = 50 * time.Millisecond
		healthySubs  = 2
		subChunks    = 150
	)

	clk := vdev.NewManualClock(rate)
	clk.Set(1<<32 - rate) // 1 s before the wrap
	srv := rig.Server(t, aserver.Options{
		Devices:          []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Clock: clk}},
		ClientQueueBytes: clientBudget,
		EvictGrace:       evictGrace,
	})
	addr := rig.Listen(t, srv, "tcp")
	stepper := rig.Step(t, srv, 100*time.Microsecond, clk)

	var firstErr rig.FirstError
	fail := firstErr.Fail

	var wg sync.WaitGroup

	// The player: streams the ramp for the whole run so every listener
	// has content to verify.
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
		playRampBlocks(ac, 400, 2048, fail)
	}()

	// Healthy subscribers: every chunk in order, every byte accounted.
	// Those that subscribe before the wrap read across it.
	var crossings atomic.Int32
	subscribeAndCollect := func(nc net.Conn, label string) {
		defer wg.Done()
		conn, err := rig.Client(nc)
		if err != nil {
			fail(fmt.Errorf("%s setup: %w", label, err))
			return
		}
		defer conn.Close()
		ac, err := conn.CreateAC(0, 0, af.ACAttributes{})
		if err != nil {
			fail(fmt.Errorf("%s: %w", label, err))
			return
		}
		sub, _, err := ac.Subscribe()
		if err != nil {
			fail(fmt.Errorf("%s subscribe: %w", label, err))
			return
		}
		rampBytes, crossed := collectChunks(t, sub, subChunks, fail)
		if rampBytes == 0 {
			fail(fmt.Errorf("%s: saw only silence across %d chunks", label, subChunks))
			return
		}
		if crossed {
			crossings.Add(1)
		}
		if err := sub.Unsubscribe(); err != nil {
			fail(fmt.Errorf("%s unsubscribe: %w", label, err))
		}
	}
	for i := 0; i < healthySubs; i++ {
		wg.Add(1)
		go subscribeAndCollect(srv.DialPipe(), fmt.Sprintf("healthy subscriber %d", i))
	}

	// A subscriber behind a transport that fragments every client write:
	// held to the same gap-free standard — the push path is server→client
	// and must not care how the requests arrived.
	wg.Add(1)
	go func() {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			wg.Done()
			t.Error(err)
			return
		}
		subscribeAndCollect(netsim.NewFaultConn(nc, netsim.FaultConfig{
			Seed: 42, MaxFragment: 7}), "fragmented subscriber")
	}()

	// A subscriber whose transport dies mid-stream (deterministic reset on
	// its write path; the periodic GetTime supplies the writes). Whatever
	// it saw before the cut must be correct; the server must sweep its
	// subscription and account the teardown.
	wg.Add(1)
	go func() {
		defer wg.Done()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Error(err)
			return
		}
		fc := netsim.NewFaultConn(nc, netsim.FaultConfig{Seed: 7, ResetAfterBytes: 600})
		conn, err := rig.Client(fc)
		if err != nil {
			return // cut landed in setup
		}
		defer conn.Close()
		ac, err := conn.CreateAC(0, 0, af.ACAttributes{})
		if err != nil {
			return
		}
		sub, _, err := ac.Subscribe()
		if err != nil {
			return
		}
		haveSeq := false
		var wantSeq uint16
		for i := 0; ; i++ {
			ch, err := sub.Next()
			if err != nil {
				return // the reset: expected
			}
			if haveSeq && ch.Seq != wantSeq {
				fail(fmt.Errorf("reset subscriber: seq %d, want %d before the cut", ch.Seq, wantSeq))
				return
			}
			haveSeq, wantSeq = true, ch.Seq+1
			if i%8 == 0 {
				if _, err := ac.GetTime(); err != nil {
					return
				}
			}
		}
	}()

	// The wedged listener: subscribes over a raw unbuffered pipe and never
	// reads a byte, so the server's writer blocks on the very first
	// unconsumed message (TCP kernel buffers would mask the wedge for
	// megabytes). The pushed chunks pile up in its server-side queue,
	// cross the budget, and the eviction policy must cut it loose — the
	// encoder never waits on it either way.
	wg.Add(1)
	go func() {
		defer wg.Done()
		nc := srv.DialPipe()
		defer nc.Close()
		if _, err := proto.Setup(nc, nc, binary.LittleEndian, "", nil); err != nil {
			fail(fmt.Errorf("wedged: %w", err))
			return
		}
		var w proto.Writer
		w.Order = binary.LittleEndian
		proto.AppendCreateAC(&w, proto.CreateACReq{AC: 1, Device: 0}) //nolint:errcheck
		proto.AppendSubscribe(&w, 1)                                  //nolint:errcheck
		if _, err := nc.Write(w.Buf); err != nil {
			fail(fmt.Errorf("wedged subscribe: %w", err))
			return
		}
		// Never touch the transport again — even a slow read loop would
		// drain the pipe and mask the wedge. Watch the server's counters
		// for the eviction instead.
		deadline := time.Now().Add(8 * time.Second)
		for srv.Snapshot().Evictions == 0 {
			if time.Now().After(deadline) {
				fail(errors.New("wedged listener was never evicted"))
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	wg.Wait()
	if err := firstErr.Err(); err != nil {
		t.Fatal(err)
	}
	if crossings.Load() == 0 {
		t.Error("no listener's stream crossed the wrap")
	}
	for stepper.Frames() < simSpan {
		time.Sleep(time.Millisecond)
	}

	s := drainSnapshot(t, srv)
	if err := s.Check(true); err != nil {
		t.Error(err)
	}
	d := s.Devices[0]

	// The wedged listener must have been evicted by the ordinary overload
	// machinery.
	if s.Evictions < 1 {
		t.Errorf("evictions = %d, want >= 1 (the wedged listener)", s.Evictions)
	}

	// Encode-once, exactly: every listener in this soak shares one wire
	// format (little-endian µ-law mono), so the encode count equals the
	// chunk count no matter how many listeners were attached — the law
	// the whole fan-out path exists to uphold.
	if d.BcastChunks == 0 {
		t.Error("no broadcast chunks cut; the soak never exercised the pump")
	}
	if d.BcastEncodes != d.BcastChunks {
		t.Errorf("encodes %d != chunks %d with a single wire format", d.BcastEncodes, d.BcastChunks)
	}
	if d.BcastMsgs == 0 {
		t.Error("no broadcast messages delivered")
	}
	if s.QueuedBytes != 0 {
		t.Errorf("queued bytes %d after drain, want 0", s.QueuedBytes)
	}
}
