package vdev

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"audiofile/internal/atime"
	"audiofile/internal/sampleconv"
)

func newTestDevice(clk *ManualClock, sink PlaySink, src RecordSource) *Device {
	return New(Config{
		Name: "codec0", Rate: 8000, Enc: sampleconv.MU255, Channels: 1,
		HWFrames: 64, Clock: clk, Sink: sink, Source: src,
	})
}

func TestManualClock(t *testing.T) {
	c := NewManualClock(8000)
	if c.Ticks() != 0 || c.Rate() != 8000 {
		t.Fatal("bad initial clock state")
	}
	c.Advance(100)
	if c.Ticks() != 100 {
		t.Errorf("Ticks = %d, want 100", c.Ticks())
	}
	c.Set(5)
	if c.Ticks() != 5 {
		t.Errorf("after Set, Ticks = %d", c.Ticks())
	}
}

func TestRealClockAdvances(t *testing.T) {
	c := NewRealClock(8000, 0)
	t0 := c.Ticks()
	time.Sleep(20 * time.Millisecond)
	t1 := c.Ticks()
	d := atime.Sub(t1, t0)
	// 20 ms at 8 kHz is 160 ticks; allow generous scheduling slop.
	if d < 100 || d > 8000 {
		t.Errorf("real clock advanced %d ticks over 20ms, want ~160", d)
	}
}

func TestRealClockSkew(t *testing.T) {
	fast := NewRealClock(1000000, 100000) // 10% fast for a visible effect
	slow := NewRealClock(1000000, 0)
	time.Sleep(10 * time.Millisecond)
	df := uint32(fast.Ticks())
	ds := uint32(slow.Ticks())
	if df <= ds {
		t.Errorf("skewed clock not faster: fast=%d slow=%d", df, ds)
	}
}

func TestDeviceAttributes(t *testing.T) {
	d := newTestDevice(NewManualClock(8000), nil, nil)
	if d.Name() != "codec0" || d.Rate() != 8000 || d.Encoding() != sampleconv.MU255 ||
		d.Channels() != 1 || d.FrameBytes() != 1 || d.HWFrames() != 64 {
		t.Errorf("bad attributes: %s %d %v %d %d %d",
			d.Name(), d.Rate(), d.Encoding(), d.Channels(), d.FrameBytes(), d.HWFrames())
	}
}

func TestPlayReachesSink(t *testing.T) {
	clk := NewManualClock(8000)
	sink := &CaptureSink{}
	d := newTestDevice(clk, sink, nil)
	data := []byte{1, 2, 3, 4}
	if n := d.WritePlay(0, data); n != 4 {
		t.Fatalf("WritePlay accepted %d, want 4", n)
	}
	clk.Advance(4)
	d.Sync()
	got, start := sink.Bytes()
	if start != 0 || !bytes.Equal(got, data) {
		t.Errorf("sink got %v at %d, want %v at 0", got, start, data)
	}
	played, silent, rec := d.Stats()
	if played != 4 || silent != 0 || rec != 4 {
		t.Errorf("stats = %d/%d/%d, want 4/0/4", played, silent, rec)
	}
}

func TestUnfedDeviceEmitsSilence(t *testing.T) {
	clk := NewManualClock(8000)
	sink := &CaptureSink{}
	d := newTestDevice(clk, sink, nil)
	clk.Advance(10)
	d.Sync()
	got, _ := sink.Bytes()
	for i, b := range got {
		if b != 0xFF { // µ-law silence
			t.Fatalf("byte %d = %#x, want µ-law silence 0xff", i, b)
		}
	}
	played, silent, _ := d.Stats()
	if played != 0 || silent != 10 {
		t.Errorf("stats played/silent = %d/%d, want 0/10", played, silent)
	}
}

func TestConsumedRegionBackfilled(t *testing.T) {
	clk := NewManualClock(8000)
	sink := &CaptureSink{}
	d := newTestDevice(clk, sink, nil)
	d.WritePlay(0, []byte{1, 2, 3, 4})
	clk.Advance(4)
	d.Sync()
	// Advance a whole ring revolution: the same slots must now be silence.
	clk.Advance(64)
	d.Sync()
	got, _ := sink.Bytes()
	for i := 4; i < len(got); i++ {
		if got[i] != 0xFF {
			t.Fatalf("stale data at %d: %#x", i, got[i])
		}
	}
}

func TestWritePlayClipsPast(t *testing.T) {
	clk := NewManualClock(8000)
	sink := &CaptureSink{}
	d := newTestDevice(clk, sink, nil)
	clk.Advance(10)
	d.Sync()
	// Write 6 frames starting 4 in the past: only frames 10,11 survive.
	n := d.WritePlay(6, []byte{1, 2, 3, 4, 5, 6})
	if n != 2 {
		t.Fatalf("accepted %d frames, want 2", n)
	}
	clk.Advance(2)
	d.Sync()
	got, _ := sink.Bytes()
	want := append(bytes.Repeat([]byte{0xFF}, 10), 5, 6)
	if !bytes.Equal(got, want) {
		t.Errorf("sink got %v, want %v", got, want)
	}
}

func TestWritePlayClipsFuture(t *testing.T) {
	clk := NewManualClock(8000)
	d := newTestDevice(clk, nil, nil)
	// Ring is 64 frames; a 100-frame write is clipped to 64.
	if n := d.WritePlay(0, make([]byte, 100)); n != 64 {
		t.Errorf("accepted %d frames, want 64", n)
	}
	// A write entirely beyond the horizon is rejected.
	if n := d.WritePlay(64, []byte{1}); n != 0 {
		t.Errorf("beyond-horizon write accepted %d frames", n)
	}
}

func TestRecordFromSource(t *testing.T) {
	clk := NewManualClock(8000)
	var counter byte
	src := FuncSource(func(_ atime.ATime, buf []byte) {
		for i := range buf {
			counter++
			buf[i] = counter
		}
	})
	d := newTestDevice(clk, nil, src)
	clk.Advance(8)
	d.Sync()
	buf := make([]byte, 8)
	if n := d.ReadRecord(0, buf); n != 8 {
		t.Fatalf("ReadRecord valid = %d, want 8", n)
	}
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if !bytes.Equal(buf, want) {
		t.Errorf("recorded %v, want %v", buf, want)
	}
}

func TestRecordOutsideWindowIsSilence(t *testing.T) {
	clk := NewManualClock(8000)
	d := newTestDevice(clk, nil, SineSource{Freq: 1000, Amp: 10000, Rate: 8000, Enc: sampleconv.MU255, Ch: 1})
	clk.Advance(200) // more than the 64-frame ring
	d.Sync()
	buf := make([]byte, 4)
	// Too old.
	if n := d.ReadRecord(0, buf); n != 0 {
		t.Errorf("too-old read valid = %d, want 0", n)
	}
	for _, b := range buf {
		if b != 0xFF {
			t.Errorf("too-old read returned %#x, want silence", b)
		}
	}
	// Future.
	if n := d.ReadRecord(300, buf); n != 0 {
		t.Errorf("future read valid = %d, want 0", n)
	}
}

func TestSineSourceDeterministic(t *testing.T) {
	s := SineSource{Freq: 440, Amp: 8000, Rate: 8000, Enc: sampleconv.LIN16, Ch: 2}
	a := make([]byte, 64)
	b := make([]byte, 64)
	s.Fill(100, a)
	s.Fill(100, b)
	if !bytes.Equal(a, b) {
		t.Error("SineSource not deterministic for same time")
	}
	// Stereo: both channels identical.
	if a[0] != a[2] || a[1] != a[3] {
		t.Error("stereo channels differ")
	}
}

func TestLoopbackPath(t *testing.T) {
	clk := NewManualClock(8000)
	lb := NewLoopback(256, 1, 0, 0xFF)
	d := New(Config{
		Name: "loop", Rate: 8000, Enc: sampleconv.MU255, Channels: 1,
		HWFrames: 64, Clock: clk, Sink: lb, Source: lb,
	})
	data := []byte{10, 20, 30, 40}
	d.WritePlay(0, data)
	clk.Advance(4)
	d.Sync()
	buf := make([]byte, 4)
	d.ReadRecord(0, buf)
	if !bytes.Equal(buf, data) {
		t.Errorf("loopback recorded %v, want %v", buf, data)
	}
}

func TestLoopbackDelay(t *testing.T) {
	clk := NewManualClock(8000)
	lb := NewLoopback(256, 1, 2, 0xFF)
	d := New(Config{
		Name: "loop", Rate: 8000, Enc: sampleconv.MU255, Channels: 1,
		HWFrames: 64, Clock: clk, Sink: lb, Source: lb,
	})
	d.WritePlay(0, []byte{10, 20, 30, 40})
	clk.Advance(6)
	d.Sync()
	buf := make([]byte, 6)
	d.ReadRecord(0, buf)
	want := []byte{0xFF, 0xFF, 10, 20, 30, 40}
	if !bytes.Equal(buf, want) {
		t.Errorf("delayed loopback recorded %v, want %v", buf, want)
	}
}

func TestSyncAcrossLargeGap(t *testing.T) {
	// Advancing far beyond the hardware ring must not wedge or corrupt.
	clk := NewManualClock(8000)
	sink := &CaptureSink{Max: 128}
	d := newTestDevice(clk, sink, nil)
	clk.Advance(1000)
	d.Sync()
	if d.Now() != 1000 {
		t.Errorf("Now = %d, want 1000", d.Now())
	}
	_, silent, rec := d.Stats()
	if silent != 1000 || rec != 1000 {
		t.Errorf("stats silent/rec = %d/%d, want 1000/1000", silent, rec)
	}
}

func TestTimeSyncs(t *testing.T) {
	clk := NewManualClock(8000)
	d := newTestDevice(clk, nil, nil)
	clk.Advance(42)
	if got := d.Time(); got != 42 {
		t.Errorf("Time = %d, want 42", got)
	}
}

func TestFuncSinkAndSource(t *testing.T) {
	var sunk []byte
	sink := FuncSink(func(_ atime.ATime, data []byte) {
		sunk = append(sunk, data...)
	})
	src := FuncSource(func(_ atime.ATime, buf []byte) {
		for i := range buf {
			buf[i] = 0x42
		}
	})
	clk := NewManualClock(8000)
	d := newTestDevice(clk, sink, src)
	d.WritePlay(0, []byte{1, 2, 3})
	clk.Advance(3)
	d.Sync()
	if !bytes.Equal(sunk, []byte{1, 2, 3}) {
		t.Errorf("FuncSink got %v", sunk)
	}
	buf := make([]byte, 3)
	d.ReadRecord(0, buf)
	if !bytes.Equal(buf, []byte{0x42, 0x42, 0x42}) {
		t.Errorf("FuncSource gave %v", buf)
	}
}

func TestCaptureSinkMax(t *testing.T) {
	s := &CaptureSink{Max: 8}
	s.Play(0, []byte{1, 2, 3, 4, 5, 6})
	s.Play(6, []byte{7, 8, 9, 10})
	got, start := s.Bytes()
	if len(got) != 8 {
		t.Fatalf("kept %d bytes, want 8", len(got))
	}
	if !bytes.Equal(got, []byte{3, 4, 5, 6, 7, 8, 9, 10}) {
		t.Errorf("kept %v", got)
	}
	if start != 2 {
		t.Errorf("start = %d, want 2", start)
	}
}

func TestDeviceConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad config did not panic")
		}
	}()
	New(Config{Rate: 0, Channels: 1})
}

// readRecordRef is ReadRecord as it was before it became a span
// operation — one window test and one one-frame ring read per frame —
// kept as the oracle the span version must match byte for byte.
func readRecordRef(d *Device, t atime.ATime, buf []byte) int {
	n := len(buf) / d.frameBytes
	oldest := atime.Add(d.now, -d.hwRec.Frames())
	valid := 0
	for i := 0; i < n; i++ {
		ft := atime.Add(t, i)
		out := buf[i*d.frameBytes : (i+1)*d.frameBytes]
		if atime.Before(ft, oldest) || !atime.Before(ft, d.now) {
			for j := range out {
				out[j] = d.silence
			}
			continue
		}
		d.hwRec.ReadAt(ft, out)
		valid++
	}
	return valid
}

// loopbackFillRef is the per-frame Loopback.Fill, the other oracle.
func loopbackFillRef(l *Loopback, t atime.ATime, buf []byte) {
	src := atime.Add(t, -l.delay)
	n := len(buf) / l.frameBytes
	for i := 0; i < n; i++ {
		ft := atime.Add(src, i)
		out := buf[i*l.frameBytes : (i+1)*l.frameBytes]
		if !l.wrSet || !atime.Before(ft, l.written) ||
			atime.Before(ft, atime.Add(l.written, -l.ring.Frames())) {
			for j := range out {
				out[j] = l.silence
			}
			continue
		}
		l.ring.ReadAt(ft, out)
	}
}

const (
	spanHW    = 64 // hardware ring of the span fixtures, in frames
	spanDelay = 24
)

// spanRig is a device patched to itself through a Loopback, so both record
// paths hold distinguishable data: it starts at device time start, plays a
// non-silent ramp and advances the clock by each of steps in turn.
type spanRig struct {
	d  *Device
	lb *Loopback
}

func newSpanRig(start atime.ATime, frameBytes int, steps ...int) *spanRig {
	enc, silence := sampleconv.MU255, byte(0xFF)
	if frameBytes == 4 {
		enc, silence = sampleconv.LIN16, 0
	}
	clk := NewManualClock(8000)
	clk.Set(start)
	lb := NewLoopback(4*spanHW, frameBytes, spanDelay, silence)
	d := New(Config{
		Name: "span", Rate: 8000, Enc: enc, Channels: frameBytes / enc.BytesPerSamples(1),
		HWFrames: spanHW, Clock: clk, Sink: lb, Source: lb,
	})
	ramp := make([]byte, spanHW*frameBytes)
	for _, step := range steps {
		for i := range ramp {
			ramp[i] = byte(1 + (int(uint32(d.Now()))+i)%200)
		}
		d.WritePlay(d.Now(), ramp)
		clk.Advance(step)
		d.Sync()
	}
	return &spanRig{d: d, lb: lb}
}

// check reads the n frames at t (plus tail bytes short of a whole frame,
// which no version may touch) through the span and the per-frame version
// of both paths and requires equal buffers and equal valid counts.
func (r *spanRig) check(t *testing.T, at atime.ATime, n, tail int) {
	t.Helper()
	size := n*r.d.frameBytes + tail%r.d.frameBytes
	got := bytes.Repeat([]byte{0xA5}, size)
	want := bytes.Repeat([]byte{0xA5}, size)
	gv, wv := r.d.ReadRecord(at, got), readRecordRef(r.d, at, want)
	if gv != wv || !bytes.Equal(got, want) {
		t.Errorf("ReadRecord(now%+d, %d frames) with now=%d: valid %d, oracle %d; buffers equal: %v",
			atime.Sub(at, r.d.now), n, r.d.now, gv, wv, bytes.Equal(got, want))
	}
	r.lb.Fill(at, got)
	loopbackFillRef(r.lb, at, want)
	if !bytes.Equal(got, want) {
		t.Errorf("Loopback.Fill(written%+d, %d frames) with written=%d set=%v differs from the oracle",
			atime.Sub(at, r.lb.written), n, r.lb.written, r.lb.wrSet)
	}
}

// spanStarts are device times the span fixtures start from: zero, just
// short of the 2³² wrap (so windows and spans straddle it), and just short
// of the signed-comparison boundary.
var spanStarts = []atime.ATime{0, atime.Add(0, -40), atime.Add(0, -300), 1<<31 - 50}

func TestSpanReadsMatchPerFrameOracle(t *testing.T) {
	for _, fb := range []int{1, 4} {
		for _, start := range spanStarts {
			// Steps of 0 leave the device (and the Loopback's written
			// mark) where it started; 300 outruns both rings.
			for _, steps := range [][]int{{}, {0}, {10}, {40, 50}, {64, 64, 7}, {300, 30}} {
				r := newSpanRig(start, fb, steps...)
				now := r.d.Now()
				for _, c := range []struct{ off, n int }{
					{-3 * spanHW, spanHW},        // wholly before the window
					{2, spanHW},                  // wholly after
					{0, 1},                       // first frame after
					{-spanHW - 10, 30},           // straddles the old edge
					{-spanHW, spanHW},            // exactly the window
					{-20, 50},                    // straddles now
					{-spanHW - 5, spanHW + 10},   // covers the window and both sides
					{-2 * spanHW, 5 * spanHW},    // n > HWFrames
					{-6 * spanHW, 12 * spanHW},   // n > the Loopback's ring too
					{-10, 0},                     // n == 0
					{-1, 1},                      // last valid frame
					{-spanHW - 1, 1},             // first frame too old
					{spanDelay - spanHW, spanHW}, // the Loopback's window edges
					{spanDelay - 5*spanHW, spanHW},
				} {
					r.check(t, atime.Add(now, c.off), c.n, 0)
					r.check(t, atime.Add(now, c.off), c.n, 3)
				}
			}
		}
	}
}

func TestSpanReadsMatchPerFrameOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		fb := []int{1, 4}[rng.Intn(2)]
		start := atime.Add(spanStarts[rng.Intn(len(spanStarts))], rng.Intn(200)-100)
		steps := make([]int, rng.Intn(4))
		for j := range steps {
			steps[j] = rng.Intn(3 * spanHW)
		}
		r := newSpanRig(start, fb, steps...)
		for j := 0; j < 20; j++ {
			off := rng.Intn(10*spanHW) - 6*spanHW
			r.check(t, atime.Add(r.d.Now(), off), rng.Intn(6*spanHW), rng.Intn(4))
		}
	}
}

// TestLoopbackFillBeforeFirstPlay pins wrSet == false in absolute terms
// (the oracle comparison above meets it through the step-less fixtures): a
// cable nothing has entered yet reads as silence wherever it is asked.
func TestLoopbackFillBeforeFirstPlay(t *testing.T) {
	for _, fb := range []int{1, 4} {
		lb := NewLoopback(4*spanHW, fb, spanDelay, 0x7E)
		for _, at := range []atime.ATime{0, spanDelay, atime.Add(0, -10), 1 << 31} {
			buf := make([]byte, 5*spanHW*fb)
			lb.Fill(at, buf)
			if !bytes.Equal(buf, bytes.Repeat([]byte{0x7E}, len(buf))) {
				t.Errorf("unplayed loopback, frame bytes %d, Fill(%d) is not all silence", fb, at)
			}
		}
	}
}

// FuzzReadRecordSpan drives the same comparison from fuzzed coordinates:
// where the device starts, how far it runs, and the span read back.
func FuzzReadRecordSpan(f *testing.F) {
	f.Add(uint32(0), uint16(10), int32(-5), uint16(20), false)
	f.Add(uint32(1<<32-40), uint16(100), int32(-70), uint16(100), true)
	f.Fuzz(func(t *testing.T, start uint32, advance uint16, off int32, n uint16, wide bool) {
		fb := 1
		if wide {
			fb = 4
		}
		r := newSpanRig(atime.ATime(start), fb, int(advance%512), int(advance>>9))
		// Spans far enough from now to cross the half-range boundary are
		// outside atime's contract; keep within ±2²⁰ frames.
		r.check(t, atime.Add(r.d.Now(), int(off%(1<<20))), int(n%1024), int(n>>10))
	})
}

func TestManualClockConcurrent(t *testing.T) {
	c := NewManualClock(8000)
	c.Set(atime.Add(0, -1000)) // the sum crosses the 2³² wrap
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Advance(3)
				c.Ticks()
			}
		}()
	}
	wg.Wait()
	if got := c.Ticks(); got != 11000 {
		t.Errorf("after 4×1000 concurrent Advance(3) from -1000, Ticks = %d, want 11000", got)
	}
}
