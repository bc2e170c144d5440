package main

import (
	"os"
	"strings"
	"testing"

	"audiofile/af"
	"audiofile/afutil"
	"audiofile/aserver"
	"audiofile/internal/rig"
	"audiofile/internal/sampleconv"
	"audiofile/internal/vdev"
)

// newServer builds a single-codec server with the given source, sink and
// clock skew, and returns a connection to it.
func newServer(t *testing.T, ppm float64, src vdev.RecordSource, sink vdev.PlaySink) (*aserver.Server, *af.Conn) {
	t.Helper()
	srv := rig.Server(t, aserver.Options{
		Logf: t.Logf,
		Devices: []aserver.DeviceSpec{
			{Kind: "codec", Name: "codec0", PPM: ppm, Source: src, Sink: sink},
		},
	})
	c, err := af.NewConn(srv.DialPipe())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return srv, c
}

func TestPassMovesAudio(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	mic := vdev.SineSource{Freq: 700, Amp: 6000, Rate: 8000, Enc: sampleconv.MU255, Ch: 1}
	speaker := &vdev.CaptureSink{Max: 1 << 20}
	_, faud := newServer(t, 0, mic, nil)
	_, taud := newServer(t, 0, nil, speaker)

	p := Params{Delay: 0.3, AJ: 0.1, Buffering: 0.1, Blocks: 10}
	n, err := Pass(faud, taud, 0, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("passed %d blocks, want 10", n)
	}
	heard, _ := speaker.Bytes()
	if p := afutil.PowerMu(heard); p < -30 {
		t.Errorf("speaker heard only %.1f dBm", p)
	}
}

func TestPassResynchronizesUnderDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	mic := vdev.SineSource{Freq: 700, Amp: 6000, Rate: 8000, Enc: sampleconv.MU255, Ch: 1}
	// A wildly fast receiver clock (5000 ppm) drifts 4 samples per
	// 100 ms block; with a ±10 ms (80-sample) band the loop must resync
	// within the 40-block (4 s) run.
	_, faud := newServer(t, 0, mic, nil)
	_, taud := newServer(t, 5000, nil, &vdev.CaptureSink{Max: 1 << 20})

	resyncCount := 0
	p := Params{Delay: 0.2, AJ: 0.01, Buffering: 0.1, Blocks: 40,
		Logf: func(format string, args ...any) { resyncCount++ }}
	if _, err := Pass(faud, taud, 0, 0, p); err != nil {
		t.Fatal(err)
	}
	if resyncCount == 0 {
		t.Error("no resynchronization despite 5000 ppm clock drift")
	}
}

func TestPassRejectsMismatchedDevices(t *testing.T) {
	srv := rig.Server(t, aserver.Options{
		Logf: t.Logf,
		Devices: []aserver.DeviceSpec{
			{Kind: "codec", Name: "codec0"},
			{Kind: "hifi", Name: "hifi0"},
		},
	})
	c, err := af.NewConn(srv.DialPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := Pass(c, c, 0, 1, Params{Delay: 0.3, AJ: 0.1, Buffering: 0.1, Blocks: 1}); err == nil {
		t.Error("mismatched formats accepted")
	}
}

func TestReadParamFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/params"
	content := "delay 0.5\nbuffering 0.2\naj 0.05\ngain -6\njunk line here\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	u, err := ReadParamFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if u.Delay == nil || *u.Delay != 0.5 {
		t.Error("delay not parsed")
	}
	if u.Buffering == nil || *u.Buffering != 0.2 {
		t.Error("buffering not parsed")
	}
	if u.AJ == nil || *u.AJ != 0.05 {
		t.Error("aj not parsed")
	}
	if u.Gain == nil || *u.Gain != -6 {
		t.Error("gain not parsed")
	}
	// Bad values error.
	os.WriteFile(path, []byte("delay oops\n"), 0o644)
	if _, err := ReadParamFile(path); err == nil {
		t.Error("bad value accepted")
	}
	if _, err := ReadParamFile(dir + "/nonexistent"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestPassRuntimeReload(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	mic := vdev.SineSource{Freq: 700, Amp: 6000, Rate: 8000, Enc: sampleconv.MU255, Ch: 1}
	speaker := &vdev.CaptureSink{Max: 1 << 20}
	_, faud := newServer(t, 0, mic, nil)
	_, taud := newServer(t, 0, nil, speaker)

	reload := make(chan Update, 1)
	newDelay := 0.6
	newGain := -12
	reload <- Update{Delay: &newDelay, Gain: &newGain}
	logged := 0
	p := Params{Delay: 0.3, AJ: 0.1, Buffering: 0.1, Blocks: 6, Reload: reload,
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "parameters updated") {
				logged++
			}
		}}
	if _, err := Pass(faud, taud, 0, 0, p); err != nil {
		t.Fatal(err)
	}
	if logged != 1 {
		t.Errorf("reload applied %d times, want 1", logged)
	}
}
