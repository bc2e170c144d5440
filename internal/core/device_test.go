package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"audiofile/internal/atime"
	"audiofile/internal/ring"
	"audiofile/internal/sampleconv"
	"audiofile/internal/vdev"
)

// codecRig is a codec device over manual-clock virtual hardware with a
// capture sink, the standard test fixture.
type codecRig struct {
	clk  *vdev.ManualClock
	sink *vdev.CaptureSink
	hw   *vdev.Device
	dev  *Device
}

func newCodecRig(t *testing.T, src vdev.RecordSource) *codecRig {
	t.Helper()
	clk := vdev.NewManualClock(8000)
	sink := &vdev.CaptureSink{}
	hw := vdev.New(vdev.Config{
		Name: "codec0", Rate: 8000, Enc: sampleconv.MU255, Channels: 1,
		HWFrames: 1024, Clock: clk, Sink: sink, Source: src,
	})
	dev := NewDevice(Config{
		Name: "codec0", Rate: 8000, Enc: sampleconv.MU255, Channels: 1,
	}, hw)
	return &codecRig{clk: clk, sink: sink, hw: hw, dev: dev}
}

// run advances the clock by n ticks in update-task-sized steps, running
// the device update after each step, as the periodic task would.
func (r *codecRig) run(n int) {
	step := 800 // 100 ms at 8 kHz
	for n > 0 {
		c := step
		if c > n {
			c = n
		}
		r.clk.Advance(c)
		r.dev.Update()
		n -= c
	}
}

func put16(b []byte, v int16) {
	binary.LittleEndian.PutUint16(b, uint16(v))
}

func muBytes(vals ...int16) []byte {
	out := make([]byte, len(vals))
	for i, v := range vals {
		out[i] = sampleconv.EncodeMuLaw(v)
	}
	return out
}

func TestDeviceDefaults(t *testing.T) {
	r := newCodecRig(t, nil)
	if r.dev.BufFrames() != 32768 { // 4 s at 8 kHz rounded to 2^15
		t.Errorf("BufFrames = %d, want 32768", r.dev.BufFrames())
	}
	if r.dev.FrameBytes() != 1 || r.dev.chanCnt != 1 {
		t.Error("frame sizes wrong")
	}
	if r.dev.IsView() || r.dev.parent != nil {
		t.Error("root device claims to be a view")
	}
	if r.dev.inputsEnabled != 1 || r.dev.outputsEnabled != 1 {
		t.Error("default I/O masks wrong")
	}
}

func TestPlayReachesHardwareOnTime(t *testing.T) {
	r := newCodecRig(t, nil)
	data := muBytes(1000, 2000, 3000, 4000)
	res := r.dev.Play(100, data, sampleconv.MU255, 0, false)
	if res.Consumed != 4 || res.Blocked {
		t.Fatalf("Play = %+v", res)
	}
	r.run(200)
	got, start := r.sink.Bytes()
	if start != 0 {
		t.Fatalf("sink start = %d", start)
	}
	if !bytes.Equal(got[100:104], data) {
		t.Errorf("played %v, want %v", got[100:104], data)
	}
	// Everything around it is silence.
	for i, b := range got[:100] {
		if b != 0xFF {
			t.Errorf("pre-roll byte %d = %#x, want silence", i, b)
		}
	}
	for i, b := range got[104:] {
		if b != 0xFF {
			t.Errorf("post-roll byte %d = %#x, want silence", 104+i, b)
		}
	}
}

func TestPlayPastDiscarded(t *testing.T) {
	r := newCodecRig(t, nil)
	r.run(1000)
	// Schedule 10 frames starting 5 in the past: 5 discarded, 5 play.
	data := muBytes(1, 2, 3, 4, 5, 1000, 1001, 1002, 1003, 1004)
	res := r.dev.Play(atime.Add(r.dev.Now(), -5), data, sampleconv.MU255, 0, false)
	if res.Consumed != 10 || res.Blocked {
		t.Fatalf("Play = %+v", res)
	}
	r.run(100)
	got, _ := r.sink.Bytes()
	if !bytes.Equal(got[1000:1005], data[5:]) {
		t.Errorf("played %v, want %v", got[1000:1005], data[5:])
	}
}

func TestPlayBeyondHorizonBlocks(t *testing.T) {
	r := newCodecRig(t, nil)
	far := atime.Add(r.dev.Now(), r.dev.BufFrames()) // beyond buffer
	res := r.dev.Play(far, muBytes(1, 2, 3), sampleconv.MU255, 0, false)
	if !res.Blocked || res.Consumed != 0 {
		t.Errorf("far-future play = %+v, want blocked", res)
	}
	// After time advances, the same request completes.
	r.run(2048)
	res = r.dev.Play(far, muBytes(1, 2, 3), sampleconv.MU255, 0, false)
	if res.Blocked {
		t.Errorf("play still blocked after time advanced: %+v", res)
	}
}

func TestMixingTwoClients(t *testing.T) {
	r := newCodecRig(t, nil)
	a := muBytes(4000, 4000, 4000, 4000)
	b := muBytes(2000, 2000, 2000, 2000)
	r.dev.Play(200, a, sampleconv.MU255, 0, false)
	r.dev.Play(200, b, sampleconv.MU255, 0, false)
	r.run(300)
	got, _ := r.sink.Bytes()
	for i := 200; i < 204; i++ {
		v := int(sampleconv.DecodeMuLaw(got[i]))
		if v < 5600 || v > 6500 {
			t.Errorf("mixed sample %d = %d, want ~6000", i, v)
		}
	}
}

func TestPreemptOverwrites(t *testing.T) {
	r := newCodecRig(t, nil)
	r.dev.Play(200, muBytes(4000, 4000, 4000, 4000), sampleconv.MU255, 0, false)
	r.dev.Play(200, muBytes(500, 500, 500, 500), sampleconv.MU255, 0, true)
	r.run(300)
	got, _ := r.sink.Bytes()
	for i := 200; i < 204; i++ {
		v := int(sampleconv.DecodeMuLaw(got[i]))
		if v < 400 || v > 600 {
			t.Errorf("preempted sample %d = %d, want ~500", i, v)
		}
	}
}

func TestPlayGain(t *testing.T) {
	r := newCodecRig(t, nil)
	// -6 dB halves the amplitude (within µ-law quantization).
	r.dev.Play(100, muBytes(8000, 8000), sampleconv.MU255, -6, false)
	r.run(200)
	got, _ := r.sink.Bytes()
	v := int(sampleconv.DecodeMuLaw(got[100]))
	if v < 3700 || v > 4400 {
		t.Errorf("gained sample = %d, want ~4000", v)
	}
}

func TestMasterOutputGain(t *testing.T) {
	r := newCodecRig(t, nil)
	r.dev.SetOutputGain(-6)
	if r.dev.OutputGain() != -6 {
		t.Fatal("OutputGain not set")
	}
	r.dev.Play(100, muBytes(8000, 8000), sampleconv.MU255, 0, false)
	r.run(200)
	got, _ := r.sink.Bytes()
	v := int(sampleconv.DecodeMuLaw(got[100]))
	if v < 3700 || v > 4400 {
		t.Errorf("master-gained sample = %d, want ~4000", v)
	}
}

func TestDisabledOutputPlaysSilence(t *testing.T) {
	r := newCodecRig(t, nil)
	r.dev.DisableOutputs(1)
	r.dev.Play(100, muBytes(8000, 8000), sampleconv.MU255, 0, false)
	r.run(200)
	got, _ := r.sink.Bytes()
	for i, b := range got {
		if b != 0xFF {
			t.Fatalf("byte %d = %#x with outputs disabled", i, b)
		}
	}
	r.dev.EnableOutputs(1)
	if r.dev.outputsEnabled != 1 {
		t.Error("EnableOutputs failed")
	}
}

func TestSilenceBetweenRequests(t *testing.T) {
	// Two disjoint play requests: the gap must be silence even though the
	// buffer held stale data (silence-fill via timeLastValid).
	r := newCodecRig(t, nil)
	r.dev.Play(100, muBytes(9000, 9000), sampleconv.MU255, 0, false)
	r.dev.Play(300, muBytes(9000, 9000), sampleconv.MU255, 0, false)
	r.run(400)
	got, _ := r.sink.Bytes()
	for i := 102; i < 300; i++ {
		if got[i] != 0xFF {
			t.Fatalf("gap byte %d = %#x, want silence", i, got[i])
		}
	}
	if got[300] == 0xFF || got[100] == 0xFF {
		t.Error("request data missing")
	}
}

func TestContiguousPlayback(t *testing.T) {
	// The aplay pattern: consecutive blocks, each scheduled on the heels
	// of the previous; output must be gapless.
	r := newCodecRig(t, nil)
	tp := atime.Add(r.dev.Now(), 80)
	start := tp
	var want []byte
	for blk := 0; blk < 20; blk++ {
		data := make([]byte, 160)
		for i := range data {
			data[i] = sampleconv.EncodeMuLaw(int16(1000 + blk*100 + i))
		}
		res := r.dev.Play(tp, data, sampleconv.MU255, 0, false)
		if res.Consumed != 160 || res.Blocked {
			t.Fatalf("block %d: %+v", blk, res)
		}
		tp = atime.Add(tp, 160)
		want = append(want, data...)
		r.run(160)
	}
	r.run(200)
	got, _ := r.sink.Bytes()
	if !bytes.Equal(got[uint32(start):uint32(start)+uint32(len(want))], want) {
		t.Error("contiguous playback corrupted")
	}
}

func TestRecordFromSine(t *testing.T) {
	src := vdev.SineSource{Freq: 440, Amp: 8000, Rate: 8000, Enc: sampleconv.MU255, Ch: 1}
	r := newCodecRig(t, src)
	r.dev.RecRefCount = 1
	r.run(8000)
	now := r.dev.Now()
	buf := make([]byte, 800)
	res := r.dev.Record(atime.Add(now, -800), buf, sampleconv.MU255, 0)
	if res.Avail != 800 {
		t.Fatalf("Avail = %d, want 800", res.Avail)
	}
	// The signal should have substantial energy (not silence).
	var energy float64
	for _, b := range buf {
		v := float64(sampleconv.DecodeMuLaw(b))
		energy += v * v
	}
	if energy/800 < 1e6 {
		t.Errorf("recorded energy too low: %g", energy/800)
	}
}

func TestRecordDistantPastIsSilence(t *testing.T) {
	src := vdev.SineSource{Freq: 440, Amp: 8000, Rate: 8000, Enc: sampleconv.MU255, Ch: 1}
	r := newCodecRig(t, src)
	r.dev.RecRefCount = 1
	r.run(r.dev.BufFrames() + 16000)
	buf := make([]byte, 100)
	res := r.dev.Record(100, buf, sampleconv.MU255, 0) // long gone
	if res.Avail != 100 {
		t.Fatalf("Avail = %d, want 100 (silence delivered immediately)", res.Avail)
	}
	for i, b := range buf {
		if b != 0xFF {
			t.Errorf("distant-past byte %d = %#x, want silence", i, b)
		}
	}
}

func TestRecordFutureNotDelivered(t *testing.T) {
	r := newCodecRig(t, nil)
	r.run(1000)
	buf := make([]byte, 100)
	res := r.dev.Record(atime.Add(r.dev.Now(), 50), buf, sampleconv.MU255, 0)
	if res.Avail != 0 {
		t.Errorf("future record Avail = %d, want 0", res.Avail)
	}
	// Straddling now: only the past half is available.
	res = r.dev.Record(atime.Add(r.dev.Now(), -50), buf, sampleconv.MU255, 0)
	if res.Avail != 50 {
		t.Errorf("straddling record Avail = %d, want 50", res.Avail)
	}
}

func TestRecordOnDemandWithoutUpdateTask(t *testing.T) {
	// A record request triggers its own record update even when the
	// periodic task never ran the record side (RecRefCount was 0).
	src := vdev.SineSource{Freq: 440, Amp: 8000, Rate: 8000, Enc: sampleconv.MU255, Ch: 1}
	r := newCodecRig(t, src)
	r.clk.Advance(500)
	buf := make([]byte, 400)
	res := r.dev.Record(100, buf, sampleconv.MU255, 0)
	if res.Avail != 400 {
		t.Fatalf("Avail = %d, want 400", res.Avail)
	}
	var energy float64
	for _, b := range buf {
		v := float64(sampleconv.DecodeMuLaw(b))
		energy += v * v
	}
	if energy/400 < 1e6 {
		t.Error("on-demand record returned silence")
	}
}

func TestLoopbackThroughServerBuffers(t *testing.T) {
	// Full path: play -> hw -> loopback cable -> hw record -> record.
	clk := vdev.NewManualClock(8000)
	lb := vdev.NewLoopback(4096, 1, 0, 0xFF)
	hw := vdev.New(vdev.Config{
		Name: "codec0", Rate: 8000, Enc: sampleconv.MU255, Channels: 1,
		HWFrames: 1024, Clock: clk, Sink: lb, Source: lb,
	})
	dev := NewDevice(Config{Name: "codec0", Rate: 8000, Enc: sampleconv.MU255, Channels: 1}, hw)
	dev.RecRefCount = 1
	data := muBytes(1000, 2000, 3000, 4000, 5000)
	dev.Play(100, data, sampleconv.MU255, 0, false)
	for i := 0; i < 4; i++ {
		clk.Advance(200)
		dev.Update()
	}
	buf := make([]byte, 5)
	res := dev.Record(100, buf, sampleconv.MU255, 0)
	if res.Avail != 5 {
		t.Fatalf("Avail = %d", res.Avail)
	}
	if !bytes.Equal(buf, data) {
		t.Errorf("loopback recorded %v, want %v", buf, data)
	}
}

func TestEncodingConversionOnPlay(t *testing.T) {
	// Client plays lin16 into a µ-law device.
	r := newCodecRig(t, nil)
	lin := make([]byte, 8)
	for i := 0; i < 4; i++ {
		put16(lin[2*i:], 6000)
	}
	r.dev.Play(100, lin, sampleconv.LIN16, 0, false)
	r.run(200)
	got, _ := r.sink.Bytes()
	v := int(sampleconv.DecodeMuLaw(got[100]))
	if v < 5700 || v > 6300 {
		t.Errorf("converted sample = %d, want ~6000", v)
	}
}

func TestInputGainOnRecord(t *testing.T) {
	src := vdev.SineSource{Freq: 440, Amp: 4000, Rate: 8000, Enc: sampleconv.MU255, Ch: 1}
	r := newCodecRig(t, src)
	r.dev.SetInputGain(6)
	if r.dev.InputGain() != 6 {
		t.Fatal("InputGain not set")
	}
	r.dev.RecRefCount = 1
	r.run(2000)
	buf := make([]byte, 800)
	r.dev.Record(atime.Add(r.dev.Now(), -800), buf, sampleconv.MU255, 0)
	var peak int
	for _, b := range buf {
		v := int(sampleconv.DecodeMuLaw(b))
		if v > peak {
			peak = v
		}
	}
	if peak < 7000 || peak > 8800 {
		t.Errorf("peak with +6 dB input gain = %d, want ~8000", peak)
	}
}

func TestDisabledInputRecordsSilence(t *testing.T) {
	src := vdev.SineSource{Freq: 440, Amp: 8000, Rate: 8000, Enc: sampleconv.MU255, Ch: 1}
	r := newCodecRig(t, src)
	r.dev.DisableInputs(1)
	r.dev.RecRefCount = 1
	r.run(2000)
	buf := make([]byte, 400)
	r.dev.Record(atime.Add(r.dev.Now(), -400), buf, sampleconv.MU255, 0)
	for i, b := range buf {
		if b != 0xFF {
			t.Fatalf("byte %d = %#x with inputs disabled", i, b)
		}
	}
}

func TestUnderrunAccounting(t *testing.T) {
	r := newCodecRig(t, nil)
	// Schedule valid data, then jump the clock far past it without letting
	// the update task push it in time (single giant step).
	r.dev.Play(2000, make([]byte, 1000), sampleconv.MU255, 0, false)
	r.clk.Advance(8000)
	r.dev.Update()
	if r.dev.Underruns == 0 {
		t.Error("no underruns recorded after a missed deadline")
	}
}

func TestStereoDeviceAndMonoViews(t *testing.T) {
	clk := vdev.NewManualClock(44100)
	sink := &vdev.CaptureSink{}
	hw := vdev.New(vdev.Config{
		Name: "hifi", Rate: 44100, Enc: sampleconv.LIN16, Channels: 2,
		HWFrames: 4096, Clock: clk, Sink: sink, Source: nil,
	})
	stereo := NewDevice(Config{Name: "hifi", Rate: 44100, Enc: sampleconv.LIN16, Channels: 2}, hw)
	t.Cleanup(stereo.Close)
	left := NewChannelView("hifiL", 2, stereo, 0, 1)
	right := NewChannelView("hifiR", 2, stereo, 1, 1)
	if !left.IsView() || left.parent != stereo {
		t.Fatal("view wiring wrong")
	}
	if left.chanCnt != 1 || stereo.chanCnt != 2 {
		t.Fatal("view channel counts wrong")
	}

	// Play distinct mono signals into each channel.
	lData := make([]byte, 8)
	rData := make([]byte, 8)
	for i := 0; i < 4; i++ {
		put16(lData[2*i:], 1111)
		put16(rData[2*i:], -2222)
	}
	if res := left.Play(100, lData, sampleconv.LIN16, 0, false); res.Consumed != 4 {
		t.Fatalf("left play %+v", res)
	}
	if res := right.Play(100, rData, sampleconv.LIN16, 0, false); res.Consumed != 4 {
		t.Fatalf("right play %+v", res)
	}
	clk.Advance(200)
	stereo.Update()
	got, _ := sink.Bytes()
	// Frame 100 is at byte offset 400 (4 bytes per stereo frame).
	l := int16(binary.LittleEndian.Uint16(got[400:]))
	rch := int16(binary.LittleEndian.Uint16(got[402:]))
	if l != 1111 || rch != -2222 {
		t.Errorf("stereo frame = (%d, %d), want (1111, -2222)", l, rch)
	}
}

func TestMonoViewMixesWithStereoClient(t *testing.T) {
	clk := vdev.NewManualClock(44100)
	sink := &vdev.CaptureSink{}
	hw := vdev.New(vdev.Config{
		Name: "hifi", Rate: 44100, Enc: sampleconv.LIN16, Channels: 2,
		HWFrames: 4096, Clock: clk, Sink: sink,
	})
	stereo := NewDevice(Config{Name: "hifi", Rate: 44100, Enc: sampleconv.LIN16, Channels: 2}, hw)
	t.Cleanup(stereo.Close)
	left := NewChannelView("hifiL", 2, stereo, 0, 1)

	sData := make([]byte, 16) // 4 stereo frames of (1000, 2000)
	for i := 0; i < 4; i++ {
		put16(sData[4*i:], 1000)
		put16(sData[4*i+2:], 2000)
	}
	stereo.Play(100, sData, sampleconv.LIN16, 0, false)
	lData := make([]byte, 8) // 4 mono frames of 500 mixed into left
	for i := 0; i < 4; i++ {
		put16(lData[2*i:], 500)
	}
	left.Play(100, lData, sampleconv.LIN16, 0, false)
	clk.Advance(200)
	stereo.Update()
	got, _ := sink.Bytes()
	l := int16(binary.LittleEndian.Uint16(got[400:]))
	rch := int16(binary.LittleEndian.Uint16(got[402:]))
	if l != 1500 || rch != 2000 {
		t.Errorf("mixed stereo frame = (%d, %d), want (1500, 2000)", l, rch)
	}
}

// TestChannelViewMatchesKernel holds a mono view to the pipeline a full
// device runs: for each client encoding, gain and mix mode, a left-view
// play across the play ring's wrap must leave the left channel equal to
// the request's kernel over that channel and the right channel untouched,
// and a left-view record across the record ring's wrap must equal the
// record kernel over the left channel.
func TestChannelViewMatchesKernel(t *testing.T) {
	const n = 64
	channel := func(frames []byte, c int) []byte {
		out := make([]byte, 2*n)
		for i := 0; i < n; i++ {
			copy(out[2*i:2*i+2], frames[4*i+2*c:])
		}
		return out
	}
	ringSpan := func(a, b []byte) []byte { return append(append([]byte(nil), a...), b...) }
	rng := rand.New(rand.NewSource(1))
	random := func(size int) []byte {
		b := make([]byte, size)
		rng.Read(b)
		return b
	}
	for _, enc := range []sampleconv.Encoding{sampleconv.MU255, sampleconv.ALAW, sampleconv.LIN16, sampleconv.LIN32} {
		for _, gainDB := range []int{0, -6} {
			for _, mix := range []bool{false, true} {
				clk := vdev.NewManualClock(44100)
				hw := vdev.New(vdev.Config{
					Name: "hifi", Rate: 44100, Enc: sampleconv.LIN16, Channels: 2,
					HWFrames: 4096, Clock: clk, Sink: vdev.DiscardSink{},
				})
				cfg := Config{Name: "hifi", Rate: 44100, Enc: sampleconv.LIN16, Channels: 2, BufSeconds: 1}
				frames := ring.RoundFrames(int(cfg.BufSeconds * float64(cfg.Rate)))
				// The span [start, start+n) straddles the rings' wrap.
				start := atime.ATime(frames - n/2)
				clk.Set(atime.Add(start, -n))
				stereo := NewDevice(cfg, hw)
				t.Cleanup(stereo.Close)
				left := NewChannelView("hifiL", 2, stereo, 0, 1)
				q := gainQ16For(gainDB)

				prior := random(4 * n)
				stereo.Play(start, prior, sampleconv.LIN16, 0, true)
				client := random(enc.BytesPerSamples(n))
				if res := left.Play(start, client, enc, gainDB, !mix); res.Consumed != n {
					t.Fatalf("%v %d dB mix=%v: play %+v", enc, gainDB, mix, res)
				}
				got := ringSpan(stereo.playBuf.Region(start, n))
				want := channel(prior, 0)
				sampleconv.SelectKernel(sampleconv.LIN16, enc, mix, q != sampleconv.GainUnity)(want, client, n, q)
				if !bytes.Equal(channel(got, 0), want) {
					t.Errorf("%v %d dB mix=%v: left channel differs from the kernel", enc, gainDB, mix)
				}
				if !bytes.Equal(channel(got, 1), channel(prior, 1)) {
					t.Errorf("%v %d dB mix=%v: right channel changed", enc, gainDB, mix)
				}

				stereo.RecRefCount = 1
				clk.Advance(4 * n)
				stereo.Update()
				recorded := random(4 * n)
				stereo.recBuf.WriteAt(start, recorded)
				out := make([]byte, enc.BytesPerSamples(n))
				if res := left.Record(start, out, enc, gainDB); res.Avail != n {
					t.Fatalf("%v %d dB mix=%v: record %+v", enc, gainDB, mix, res)
				}
				want = make([]byte, len(out))
				sampleconv.SelectKernel(enc, sampleconv.LIN16, false, q != sampleconv.GainUnity)(want, channel(recorded, 0), n, q)
				if !bytes.Equal(out, want) {
					t.Errorf("%v %d dB: left record differs from the kernel", enc, gainDB)
				}
			}
		}
	}
}

func TestRecordStraddlingBufferTail(t *testing.T) {
	// Request partly older than the buffer: silence prefix + data suffix.
	src := vdev.SineSource{Freq: 1000, Amp: 8000, Rate: 8000, Enc: sampleconv.MU255, Ch: 1}
	r := newCodecRig(t, src)
	r.dev.RecRefCount = 1
	total := r.dev.BufFrames() + 4000
	r.run(total)
	now := r.dev.Now()
	oldest := atime.Add(now, -r.dev.BufFrames())
	buf := make([]byte, 200)
	res := r.dev.Record(atime.Add(oldest, -100), buf, sampleconv.MU255, 0)
	if res.Avail != 200 {
		t.Fatalf("Avail = %d", res.Avail)
	}
	for i := 0; i < 100; i++ {
		if buf[i] != 0xFF {
			t.Fatalf("pre-window byte %d not silence", i)
		}
	}
	var energy float64
	for _, b := range buf[100:] {
		v := float64(sampleconv.DecodeMuLaw(b))
		energy += v * v
	}
	if energy/100 < 1e5 {
		t.Error("in-window data missing")
	}
}
