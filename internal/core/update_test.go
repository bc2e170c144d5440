package core

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"audiofile/internal/atime"
	"audiofile/internal/sampleconv"
	"audiofile/internal/vdev"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/master_gain_*.hex from this build's output")

// updateRig is a device over manual-clock hardware whose output is patched
// back to its input through a Loopback: the fixture of the update-path
// golden test and benchmark. With capture set the DAC side is also kept
// in sink.
type updateRig struct {
	clk  *vdev.ManualClock
	sink *vdev.CaptureSink
	dev  *Device
}

func newUpdateRig(t0 atime.ATime, rate int, enc sampleconv.Encoding, channels, hwFrames, delay int, capture bool) *updateRig {
	fb := enc.BytesPerSamples(1) * channels
	r := &updateRig{clk: vdev.NewManualClock(rate)}
	r.clk.Set(t0)
	lb := vdev.NewLoopback(4*hwFrames, fb, delay, enc.SilenceByte())
	var sink vdev.PlaySink = lb
	if capture {
		r.sink = &vdev.CaptureSink{}
		sink = vdev.FuncSink(func(t atime.ATime, data []byte) {
			r.sink.Play(t, data)
			lb.Play(t, data)
		})
	}
	hw := vdev.New(vdev.Config{
		Name: "dev0", Rate: rate, Enc: enc, Channels: channels, HWFrames: hwFrames,
		Clock: r.clk, Sink: sink, Source: lb,
	})
	r.dev = NewDevice(Config{Name: "dev0", Rate: rate, Enc: enc, Channels: channels, BufSeconds: 0.05}, hw)
	r.dev.RecRefCount = 1
	return r
}

// lcgBytes returns n deterministic bytes covering every byte value, so
// µ-law data spans the whole code space and lin16 data reaches the levels
// a +6 dB gain saturates.
func lcgBytes(n int, seed uint32) []byte {
	out := make([]byte, n)
	for i := range out {
		seed = seed*1664525 + 1013904223
		out[i] = byte(seed >> 24)
	}
	return out
}

// TestMasterGainGolden pins the bytes the update path produces under a
// −6 dB master output gain and a +6 dB master input gain: what the DAC
// emits (play buffer → gain → hardware, by write-through and by the
// periodic push, across a hardware-ring wrap) and what a client records
// back through the loopback (hardware → gain → record buffer). The golden
// files were captured from the commit before the update path stopped
// staging through scratch and resolved its gains from the Q16 table;
// -update-golden rewrites them.
func TestMasterGainGolden(t *testing.T) {
	for _, tc := range []struct {
		name     string
		rate     int
		enc      sampleconv.Encoding
		channels int
	}{
		{"codec", 8000, sampleconv.MU255, 1},
		{"hifi", 44100, sampleconv.LIN16, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Device time starts 100 frames short of 2³², so the run
			// crosses the time wrap and, with it, the end of every ring.
			const hwFrames, delay, total = 64, 8, 280
			t0 := atime.Add(0, -100)
			r := newUpdateRig(t0, tc.rate, tc.enc, tc.channels, hwFrames, delay, true)
			fb := r.dev.FrameBytes()
			r.dev.SetOutputGain(-6)
			r.dev.SetInputGain(6)
			// One play inside the update region (write-through) and one
			// beyond it (pushed by later updates, in pieces).
			r.dev.Play(atime.Add(t0, 10), lcgBytes(32*fb, 1), tc.enc, 0, false)
			r.dev.Play(atime.Add(t0, 150), lcgBytes(64*fb, 2), tc.enc, 0, false)
			for now := 0; now < total; now += 40 {
				r.clk.Advance(40)
				r.dev.Update()
			}
			played, start := r.sink.Bytes()
			if start != t0 || len(played) != total*fb {
				t.Fatalf("sink holds %d bytes from time %d, want %d from %d", len(played), start, total*fb, t0)
			}
			recorded := make([]byte, total*fb)
			if res := r.dev.Record(t0, recorded, tc.enc, 0); res.Avail != total {
				t.Fatalf("record delivered %d frames, want %d", res.Avail, total)
			}
			checkGolden(t, "master_gain_"+tc.name+"_played.hex", played)
			checkGolden(t, "master_gain_"+tc.name+"_recorded.hex", recorded)
		})
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Errorf("%s: %d bytes differ from the golden's %d, first at byte %d", name, len(got), len(want), i)
	}
}

// deviceUpdates are the update-path fixtures: the in-process twin of the
// bench ledger's loopback workload (codec, 160 frames a tick, delay 24)
// plus a hifi rung at one 2 048-frame window a tick, each at unity and at
// a -6 dB master gain.
var deviceUpdates = []deviceUpdate{
	{"codec160/unity", 8000, sampleconv.MU255, 1, 1024, 160, 0},
	{"codec160/-6dB", 8000, sampleconv.MU255, 1, 1024, 160, -6},
	{"hifi2048/unity", 44100, sampleconv.LIN16, 2, 4096, 2048, 0},
	{"hifi2048/-6dB", 44100, sampleconv.LIN16, 2, 4096, 2048, -6},
}

type deviceUpdate struct {
	name     string
	rate     int
	enc      sampleconv.Encoding
	channels int
	hwFrames int
	advance  int
	gainDB   int
}

// ready builds the rig and returns one tick of the paper's update task on
// a moving clock, and the bytes it plays: a play lands just past the
// hardware window, the clock advances, and Update pushes it to the
// hardware and pulls the new record frames back through the loopback.
func (du deviceUpdate) ready() (tick func(), bytes int) {
	r := newUpdateRig(0, du.rate, du.enc, du.channels, du.hwFrames, 24, false)
	r.dev.SetOutputGain(du.gainDB)
	r.dev.SetInputGain(du.gainDB)
	data := lcgBytes(du.advance*r.dev.FrameBytes(), 3)
	return func() {
		r.dev.Play(atime.Add(r.dev.Now(), du.hwFrames), data, du.enc, 0, true)
		r.clk.Advance(du.advance)
		r.dev.Update()
	}, len(data)
}

// BenchmarkDeviceUpdate times deviceUpdates' ticks; TestDeviceUpdateAllocs
// holds them to 0 allocations: the update path stages nothing it has to
// allocate.
func BenchmarkDeviceUpdate(b *testing.B) {
	for _, du := range deviceUpdates {
		b.Run(du.name, func(b *testing.B) {
			tick, bytes := du.ready()
			b.SetBytes(int64(bytes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick()
			}
		})
	}
}
