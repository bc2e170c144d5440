package aserver

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/internal/atime"
	"audiofile/internal/proto"
	"audiofile/internal/sampleconv"
	"audiofile/internal/vdev"
)

// TestCompressedRecordEarlyWakeRearms pins the resume latency of a
// blocking ADPCM record: its wake is an estimate, and one that
// lands before the device clock has produced the samples must schedule
// another rather than leave the request to the next periodic update.
// The manual clock stands still, so the retry here is always early.
func TestCompressedRecordEarlyWakeRearms(t *testing.T) {
	srv, c, clk := benchServer(t)
	clk.Advance(4096)
	srv.Sync()
	e := srv.engineByDev[0]
	var p *parked
	srv.Do(func() {
		a := c.acs[1]
		a.enc = sampleconv.ADPCM4
		// 64 ADPCM bytes are 128 frames, all of them still in the future.
		now := uint32(srv.Device(0).Time())
		_, p = srv.dispatchHotGroup(c, benchRun(proto.OpRecordSamples, 0, recordBody(1, now, 64)))
	})
	if p == nil {
		t.Fatal("record of future samples did not park")
	}

	e.mu.Lock()
	p.wake = time.Time{} // as if the first wake had just fired
	e.retryParked(c, p)
	wake, armed, next := p.wake, e.armed, e.nextUpdate
	e.mu.Unlock()
	if wake.IsZero() {
		t.Fatal("early retry left the park without a wake: it was not re-armed")
	}
	// The timer is armed no later than the wake — so ahead of the next
	// update whenever the wake is.
	if armed.After(wake) || armed.After(next) {
		t.Fatalf("engine armed for %v with the park due %v and the next update %v",
			armed, wake, next)
	}

	clk.Advance(256)
	srv.Sync()
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		t.Fatal("park did not complete once the samples existed")
	}
}

// TestParkedPlayBytesCounted: a play parked beyond the buffer horizon
// holds one pooled buffer — its ingress copy (µ-law) or its decompression
// (ADPCM) — and frame_bytes_in_flight counts exactly its remaining data
// for as long as the park lasts, however it ends: completed as the clock
// reaches it, discarded with a dead client, or discarded by Close. A play
// that fits at once leaves the gauge where it was.
func TestParkedPlayBytesCounted(t *testing.T) {
	const frames = 1024
	for _, enc := range []sampleconv.Encoding{sampleconv.MU255, sampleconv.ADPCM4} {
		for _, end := range []string{"completed", "dead client", "Close"} {
			t.Run(enc.String()+"/"+end, func(t *testing.T) {
				srv, c, clk := benchServer(t)
				e := srv.engineByDev[0]
				before := lent(srv)
				play := func(ahead int) (p *parked) {
					srv.Do(func() {
						d := srv.Device(0)
						at := uint32(atime.Add(d.Time(), ahead))
						data := make([]byte, enc.BytesPerSamples(frames))
						_, p = srv.dispatchHotGroup(c, benchRun(proto.OpPlaySamples, 0, playBody(1, at, data)))
					})
					return p
				}
				srv.Do(func() {
					if a := c.acs[1]; enc == sampleconv.ADPCM4 {
						a.enc = enc
					}
				})
				if p := play(0); p != nil || lent(srv) != before {
					t.Fatalf("a play that fits parked (%v) or left %d bytes lent, want %d", p != nil, lent(srv), before)
				}
				p := play(srv.Device(0).BufFrames())
				if p == nil {
					t.Fatal("play beyond the horizon did not park")
				}
				e.mu.Lock()
				held, got := int64(len(p.play.Data)), srv.sm.frameBytes.Load()-before
				e.mu.Unlock()
				if held == 0 || got != held {
					t.Fatalf("parked with %d bytes left, frame_bytes_in_flight rose by %d", held, got)
				}

				switch end {
				case "completed":
					clk.Advance(2 * frames)
					srv.Sync()
				case "dead client":
					c.dead.Store(true)
					srv.Sync()
				case "Close":
					srv.Close()
				}
				select {
				case <-p.done:
				case <-time.After(5 * time.Second):
					t.Fatalf("park did not end (%s)", end)
				}
				d := srv.Snapshot().Devices[0]
				if want := uint64(1); (end == "completed") != (d.ParksCompleted == want) || d.ParksCompleted+d.ParksDiscarded != want {
					t.Errorf("%s: parks completed %d, discarded %d", end, d.ParksCompleted, d.ParksDiscarded)
				}
				if got := lent(srv); got != before {
					t.Errorf("%s: frame_bytes_in_flight %d, want %d", end, got, before)
				}
			})
		}
	}
}

// resumeItem is one play or record of the attempt-equivalence script. A
// play lands so that its tail first fits the buffer horizon at T, a
// record so that its last sample exists at T, where T is the device's
// clock gap steps after the item begins; parks tells whether sending it
// before T blocks it (a no-block record never does).
type resumeItem struct {
	dev    int // root device index: 0 codec, 1 hifi
	ac     uint32
	record bool
	flags  uint8
	frames int // frames of audio the request covers
	gap    int
	parks  bool
}

// resumeScript covers every shape servePlay and serveRecord take: µ-law
// mono, lin16 stereo on the hifi, ADPCM both ways, the big-endian sample
// flag both ways, a suppressed play ack and a no-block record. The
// records follow the plays at the distance of the buffer horizon, so they
// capture the looped-back audio and not just silence.
var resumeScript = []resumeItem{
	{dev: 0, ac: 1, frames: 1024, gap: 2, parks: true},
	{dev: 0, ac: 1, frames: 512, gap: 2, parks: true, flags: proto.SampleFlagSuppressReply},
	{dev: 0, ac: 2, frames: 512, gap: 2, parks: true}, // ADPCM play
	{dev: 1, ac: 3, frames: 2048, gap: 2, parks: true},
	{dev: 1, ac: 3, frames: 1024, gap: 1, parks: true, flags: proto.SampleFlagBigEndian},
	{dev: 0, ac: 1, record: true, frames: 2048, gap: 14, parks: true},
	{dev: 0, ac: 2, record: true, frames: 512, gap: 2, parks: true}, // ADPCM record
	{dev: 0, ac: 1, record: true, frames: 300, gap: 1, flags: proto.SampleFlagNoBlock},
	{dev: 1, ac: 3, record: true, frames: 3072, gap: 9, parks: true},
	{dev: 1, ac: 3, record: true, frames: 1024, gap: 1, parks: true, flags: proto.SampleFlagBigEndian},
}

// runResumeScript plays resumeScript over one connection and returns the
// reply byte stream and the final snapshot. Both runs move the clocks
// through the same steps, with an update after each; what differs is when
// an item is sent: at its T (nothing parks), or early, when it begins, so
// it parks and the engine resumes it as the clock reaches T.
func runResumeScript(t *testing.T, early bool) ([]byte, Snapshot) {
	t.Helper()
	clks := []*vdev.ManualClock{vdev.NewManualClock(8000), vdev.NewManualClock(44100)}
	srv, err := New(Options{
		Devices: []DeviceSpec{
			{Kind: "codec", Clock: clks[0], Loopback: true, BufSeconds: 0.5},
			{Kind: "hifi", Clock: clks[1], Loopback: true, BufSeconds: 0.5},
		},
		Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc := dialRaw(t, srv)
	if nc == nil {
		t.FailNow()
	}
	replies := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(nc)
		replies <- b
	}()

	// await returns once the server has dispatched want requests and the
	// connection's park state is as expected.
	await := func(want uint64, parked int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			done := dispatched(srv) == want
			var now int64
			for _, e := range srv.engines {
				now += outstanding(e)
			}
			if done && now == parked {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("early=%v: dispatched %d of %d requests, %d parked (want %d)",
					early, dispatched(srv), want, now, parked)
			}
			runtime.Gosched()
		}
	}
	sent := uint64(0)
	send := func(w *proto.Writer) {
		t.Helper()
		if _, err := nc.Write(w.Buf); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	for _, q := range []proto.CreateACReq{
		{AC: 1, Device: 0},
		{AC: 2, Device: 0, Mask: proto.ACEncoding, Attrs: proto.ACAttributes{Type: uint8(sampleconv.ADPCM4)}},
		{AC: 3, Device: 1},
	} {
		w := proto.Writer{Order: binary.LittleEndian}
		if err := proto.AppendCreateAC(&w, q); err != nil {
			t.Fatal(err)
		}
		send(&w)
	}
	// One record per context before the clocks move: a device captures
	// only while some context is recording, so without this the direct
	// run's records would find nothing but silence behind them.
	for ac := uint32(1); ac <= 3; ac++ {
		w := proto.Writer{Order: binary.LittleEndian}
		if err := proto.AppendRecordSamples(&w, proto.RecordSamplesReq{AC: ac, NBytes: 4, Flags: proto.SampleFlagNoBlock}); err != nil {
			t.Fatal(err)
		}
		send(&w)
	}
	await(sent, 0)

	for i, it := range resumeScript {
		d := srv.Device(it.dev)
		e := srv.engineByDev[it.dev]
		hw := d.Backend().HWFrames()
		step := hw / 4
		e.mu.Lock()
		begin := d.Now()
		e.mu.Unlock()
		T := atime.Add(begin, it.gap*step)
		w := proto.Writer{Order: binary.LittleEndian}
		enc, channels := d.Cfg.Enc, d.Cfg.Channels
		if it.ac == 2 {
			enc = sampleconv.ADPCM4
		}
		nbytes := enc.BytesPerSamples(it.frames * channels)
		if it.record {
			err = proto.AppendRecordSamples(&w, proto.RecordSamplesReq{
				AC: it.ac, Time: uint32(atime.Add(T, -it.frames)), NBytes: uint32(nbytes), Flags: it.flags})
		} else {
			data := make([]byte, nbytes)
			for j := range data {
				data[j] = byte(j*7 + i*31 + 1)
			}
			usable := d.BufFrames() - hw
			err = proto.AppendPlaySamples(&w, proto.PlaySamplesReq{
				AC: it.ac, Time: uint32(atime.Add(T, usable-it.frames)), Flags: it.flags, Data: data})
		}
		if err != nil {
			t.Fatal(err)
		}
		started := srv.Snapshot().Devices[it.dev].ParksStarted
		if early && it.parks {
			send(&w)
			await(sent, 1)
		}
		for n := 0; n < it.gap; n++ {
			clks[it.dev].Advance(step)
			srv.Sync()
		}
		if !early || !it.parks {
			send(&w)
		}
		await(sent, 0)
		wantParks := started
		if early && it.parks {
			wantParks++
		}
		if got := srv.Snapshot().Devices[it.dev].ParksStarted; got != wantParks {
			t.Fatalf("early=%v item %d: parks started %d, want %d", early, i, got, wantParks)
		}
	}
	// Every reply is queued; close once the writer has handed them all over.
	snap := srv.Snapshot()
	for deadline := time.Now().Add(10 * time.Second); snap.QueuedBytes != 0; snap = srv.Snapshot() {
		if time.Now().After(deadline) {
			t.Fatalf("early=%v: %d reply bytes never left the queue", early, snap.QueuedBytes)
		}
		runtime.Gosched()
	}
	nc.Close()
	return <-replies, snap
}

// TestResumedAttemptMatchesFirst is the one test of the resume path: a
// request served on attempt 0 and the same request parked and resumed by
// the engine go through the same code, so when both complete at the same
// device time their replies are the same bytes — acks, record data, byte
// order and compression included — and the frame and park conservation
// laws hold either way.
func TestResumedAttemptMatchesFirst(t *testing.T) {
	direct, ds := runResumeScript(t, false)
	resumed, rs := runResumeScript(t, true)
	if !bytes.Equal(direct, resumed) {
		at := 0
		for at < len(direct) && at < len(resumed) && direct[at] == resumed[at] {
			at++
		}
		end := func(b []byte) int { return min(len(b), at+32) }
		t.Fatalf("resumed replies (%d bytes) differ from attempt-0 replies (%d bytes) at offset %d:\ndirect  %x\nresumed %x",
			len(resumed), len(direct), at, direct[at:end(direct)], resumed[at:end(resumed)])
	}
	silence := true
	for _, b := range direct[len(direct)/2:] {
		silence = silence && (b == 0 || b == 0xFF)
	}
	if silence {
		t.Error("the records captured only silence: the script is not exercising the data path")
	}
	parks := 0
	for _, it := range resumeScript {
		if it.parks {
			parks++
		}
	}
	for i := range ds.Devices {
		d, r := ds.Devices[i], rs.Devices[i]
		for _, s := range []DeviceStats{d, r} {
			if err := s.Check(true); err != nil {
				t.Error(err)
			}
		}
		if d.ParksStarted != 0 {
			t.Errorf("%s: %d parks in the direct run", d.Name, d.ParksStarted)
		}
		parks -= int(r.ParksCompleted)
		// A resumed play is accepted once, not once per attempt.
		if d.FramesAccepted != r.FramesAccepted || d.PlayBytes != r.PlayBytes || d.RecBytes != r.RecBytes {
			t.Errorf("%s: direct accepted %d frames, %d play bytes, %d record bytes; resumed %d, %d, %d",
				d.Name, d.FramesAccepted, d.PlayBytes, d.RecBytes, r.FramesAccepted, r.PlayBytes, r.RecBytes)
		}
	}
	if parks != 0 {
		t.Errorf("resumed run completed %d parks fewer than the script holds", parks)
	}
}

// TestParkResumesAtItsWake: on a real-clock codec a blocking record is
// resumed for the moment its samples exist, not at the next 64 ms update.
// Three connections block on data 5, 25 and 45 ms away; they must resume
// in deadline order, none before its last sample exists, the first well
// before an update tick could have served it.
func TestParkResumesAtItsWake(t *testing.T) {
	srv, err := New(Options{
		Devices: []DeviceSpec{{Kind: "codec"}},
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	aheadMs := []int{5, 25, 45}
	acs := make([]*af.AC, len(aheadMs))
	for i := range acs {
		c, err := af.NewConn(srv.DialPipe())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if acs[i], err = c.CreateAC(0, 0, af.ACAttributes{}); err != nil {
			t.Fatal(err)
		}
	}
	now, err := acs[0].GetTime()
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		at    time.Duration // wall time from the common start to the reply
		early int           // frames the reply time falls short of the record's end
		err   error
	}
	results := make([]result, len(acs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, ac := range acs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, aheadMs[i]*8) // 8 kHz µ-law: 8 bytes a millisecond
			got, n, err := ac.RecordSamples(now, buf, true)
			if err == nil && n != len(buf) {
				err = fmt.Errorf("blocking record returned %d of %d bytes", n, len(buf))
			}
			results[i] = result{time.Since(start), int(int32(now.Add(len(buf)) - got)), err}
		}()
	}
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("record %d ms ahead: %v", aheadMs[i], r.err)
		}
		if r.early > 0 {
			t.Errorf("record %d ms ahead answered %d frames before its last sample existed", aheadMs[i], r.early)
		}
		if i > 0 && r.at < results[i-1].at {
			t.Errorf("record %d ms ahead resumed at %v, before the one %d ms ahead (%v)",
				aheadMs[i], r.at, aheadMs[i-1], results[i-1].at)
		}
	}
	if results[0].at > 50*time.Millisecond {
		t.Errorf("record 5 ms ahead resumed after %v: its wake is not reaching the wheel", results[0].at)
	}
}
