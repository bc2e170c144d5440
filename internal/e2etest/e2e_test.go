// Package e2etest drives the built client binaries end to end against an
// in-process server over a real Unix socket: the closest thing to a human
// running the paper's out-of-the-box clients. The daemons and afperf run
// as built binaries too.
package e2etest

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"audiofile/afutil"
	"audiofile/aserver"
	"audiofile/internal/rig"
	"audiofile/internal/sampleconv"
	"audiofile/internal/sndfile"
	"audiofile/internal/vdev"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "afbin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	cmd := exec.Command("go", "build", "-o", dir+"/",
		"audiofile/cmd/aplay", "audiofile/cmd/arecord", "audiofile/cmd/atone",
		"audiofile/cmd/apower", "audiofile/cmd/aset", "audiofile/cmd/ahs",
		"audiofile/cmd/aphone", "audiofile/cmd/aevents", "audiofile/cmd/alsatoms",
		"audiofile/cmd/aprop", "audiofile/cmd/afft", "audiofile/cmd/apass",
		"audiofile/cmd/ahost", "audiofile/cmd/astat",
		"audiofile/cmd/afd", "audiofile/cmd/arouter", "audiofile/cmd/afperf")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building clients:", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func bin(name string) string { return filepath.Join(binDir, name) }

func run(t *testing.T, stdin []byte, name string, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(bin(name), args...)
	if stdin != nil {
		cmd.Stdin = bytes.NewReader(stdin)
	}
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr: %s", name, args, err, errb.String())
	}
	return out.String(), errb.String()
}

func TestAtoneIntoAplay(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	speaker := &vdev.CaptureSink{Max: 1 << 20}
	srv := rig.Server(t, aserver.Options{Logf: t.Logf, Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Sink: speaker}}})
	afAddr := "unix:" + rig.Listen(t, srv, "unix")

	tone, _ := run(t, nil, "atone", "-f", "440", "-p", "-6", "-l", "0.5")
	if len(tone) != 4000 {
		t.Fatalf("atone produced %d bytes, want 4000", len(tone))
	}
	run(t, []byte(tone), "aplay", "-a", afAddr, "-f", "-t", "0.05")

	heard, _ := speaker.Bytes()
	if p := afutil.PowerMu(heard); p < -12 || p > -3 {
		t.Errorf("speaker heard %.1f dBm, want ~-6", p)
	}
}

func TestArecordIntoApower(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	mic := vdev.SineSource{Freq: 1000, Amp: float64(int(8000)), Rate: 8000, Enc: sampleconv.MU255, Ch: 1}
	srv := rig.Server(t, aserver.Options{Logf: t.Logf, Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Source: mic}}})
	afAddr := "unix:" + rig.Listen(t, srv, "unix")

	rec, _ := run(t, nil, "arecord", "-a", afAddr, "-l", "0.5")
	if len(rec) != 4000 {
		t.Fatalf("arecord produced %d bytes, want 4000", len(rec))
	}
	pow, _ := run(t, []byte(rec), "apower")
	lines := strings.Fields(strings.TrimSpace(pow))
	if len(lines) != 4 {
		t.Fatalf("apower printed %d values, want 4: %q", len(lines), pow)
	}
	var v float64
	fmt.Sscanf(lines[2], "%f", &v) //nolint:errcheck
	// A sine of peak 8000 is about -8.9 dBm re the digital milliwatt.
	if v < -11 || v > -7 {
		t.Errorf("apower block = %v dBm, want ~-8.9", v)
	}
}

func TestArecordSilenceStop(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	srv := rig.Server(t, aserver.Options{Logf: t.Logf, Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0"}}})
	afAddr := "unix:" + rig.Listen(t, srv, "unix")
	start := time.Now()
	rec, _ := run(t, nil, "arecord", "-a", afAddr, "-s",
		"-silentlevel", "-40", "-silenttime", "0.4", "-l", "5")
	if time.Since(start) > 3*time.Second {
		t.Error("silence detector did not stop the recording early")
	}
	if len(rec) == 0 || len(rec) > 2*8000 {
		t.Errorf("recorded %d bytes", len(rec))
	}
}

func TestAsetReportsAndSets(t *testing.T) {
	srv := rig.Server(t, aserver.Options{Logf: t.Logf, Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0"}}})
	afAddr := "unix:" + rig.Listen(t, srv, "unix")
	run(t, nil, "aset", "-a", afAddr, "-og", "-12", "-ig", "6")
	out, _ := run(t, nil, "aset", "-a", afAddr)
	if !strings.Contains(out, "output gain -12 dB") || !strings.Contains(out, "input gain 6 dB") {
		t.Errorf("aset output:\n%s", out)
	}
	if !strings.Contains(out, "8000 Hz, MU255") {
		t.Errorf("device description missing: %s", out)
	}
}

func TestTelephoneClients(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	srv := rig.Server(t, aserver.Options{Logf: t.Logf, Devices: []aserver.DeviceSpec{{Kind: "phone", Name: "phone0"}}})
	afAddr := "unix:" + rig.Listen(t, srv, "unix")

	out, _ := run(t, nil, "ahs", "-a", afAddr, "query")
	if !strings.Contains(out, "on hook") {
		t.Errorf("query = %q", out)
	}
	run(t, nil, "ahs", "-a", afAddr, "off")
	out, _ = run(t, nil, "ahs", "-a", afAddr, "query")
	if !strings.Contains(out, "off hook") {
		t.Errorf("query after off = %q", out)
	}

	// Dial; afterwards the property is set and the line decoded digits.
	run(t, nil, "aphone", "-a", afAddr, "411")
	out, _ = run(t, nil, "aprop", "-a", afAddr)
	if !strings.Contains(out, `LAST_NUMBER_DIALED(STRING) = "411"`) {
		t.Errorf("aprop = %q", out)
	}
	run(t, nil, "ahs", "-a", afAddr, "on")
}

func TestAeventsRingcount(t *testing.T) {
	srv := rig.Server(t, aserver.Options{Logf: t.Logf, Devices: []aserver.DeviceSpec{{Kind: "phone", Name: "phone0"}}})
	afAddr := "unix:" + rig.Listen(t, srv, "unix")
	go func() {
		time.Sleep(300 * time.Millisecond)
		srv.PhoneLine(0).RingPulse()
		time.Sleep(200 * time.Millisecond)
		srv.PhoneLine(0).RingPulse()
	}()
	out, _ := run(t, nil, "aevents", "-a", afAddr, "-ringcount", "2")
	if strings.Count(out, "ring started") != 2 {
		t.Errorf("aevents output:\n%s", out)
	}
}

func TestAlsatomsAndAprop(t *testing.T) {
	srv := rig.Server(t, aserver.Options{Logf: t.Logf, Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0"}}})
	afAddr := "unix:" + rig.Listen(t, srv, "unix")
	out, _ := run(t, nil, "alsatoms", "-a", afAddr)
	if !strings.Contains(out, "STRING") || !strings.Contains(out, "LAST_NUMBER_DIALED") {
		t.Errorf("alsatoms:\n%s", out)
	}
	run(t, nil, "aprop", "-a", afAddr, "-set", "MY_NOTE", "hello world")
	out, _ = run(t, nil, "aprop", "-a", afAddr)
	if !strings.Contains(out, `MY_NOTE(STRING) = "hello world"`) {
		t.Errorf("aprop:\n%s", out)
	}
	run(t, nil, "aprop", "-a", afAddr, "-delete", "MY_NOTE")
	out, _ = run(t, nil, "aprop", "-a", afAddr)
	if strings.Contains(out, "MY_NOTE") {
		t.Errorf("property survived deletion:\n%s", out)
	}
}

func TestAhostListing(t *testing.T) {
	srv := rig.Server(t, aserver.Options{Logf: t.Logf, Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0"}}})
	afAddr := "unix:" + rig.Listen(t, srv, "unix")
	out, _ := run(t, nil, "ahost", "-a", afAddr, "+10.9.8.7")
	if !strings.Contains(out, "10.9.8.7") {
		t.Errorf("ahost after add:\n%s", out)
	}
	out, _ = run(t, nil, "ahost", "-a", afAddr, "--", "-10.9.8.7")
	if strings.Contains(out, "10.9.8.7") {
		t.Errorf("ahost after remove:\n%s", out)
	}
}

func TestAfftSineDemo(t *testing.T) {
	out, _ := run(t, nil, "afft", "-sine", "-blocks", "5", "-width", "32")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("afft printed %d lines, want 5", len(lines))
	}
	for i, l := range lines {
		if len(l) != 32 {
			t.Errorf("line %d width %d, want 32", i, len(l))
		}
		if strings.TrimLeft(l, " ") == "" {
			t.Errorf("line %d is blank — no spectral energy", i)
		}
	}
}

func TestAfftFromPipe(t *testing.T) {
	tone, _ := run(t, nil, "atone", "-f", "1200", "-l", "0.5")
	out, _ := run(t, []byte(tone), "afft", "-file", "-", "-blocks", "3", "-width", "40")
	if len(strings.Split(strings.TrimRight(out, "\n"), "\n")) != 3 {
		t.Errorf("afft from pipe:\n%s", out)
	}
}

func TestApassBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	mic := vdev.SineSource{Freq: 700, Amp: 6000, Rate: 8000, Enc: sampleconv.MU255, Ch: 1}
	speaker := &vdev.CaptureSink{Max: 1 << 20}
	srv := rig.Server(t, aserver.Options{Logf: t.Logf, Devices: []aserver.DeviceSpec{
		{Kind: "codec", Name: "mic", Source: mic},
		{Kind: "codec", Name: "spkr", Sink: speaker},
	}})
	afAddr := "unix:" + rig.Listen(t, srv, "unix")
	run(t, nil, "apass", "-ia", afAddr, "-oa", afAddr, "-id", "0", "-od", "1", "-n", "8")
	heard, _ := speaker.Bytes()
	if p := afutil.PowerMu(heard); p < -30 {
		t.Errorf("apass speaker heard only %.1f dBm", p)
	}
}

func TestArecordWavIntoAplay(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	mic := vdev.SineSource{Freq: 600, Amp: 8000, Rate: 8000, Enc: sampleconv.MU255, Ch: 1}
	speaker := &vdev.CaptureSink{Max: 1 << 20}
	srv := rig.Server(t, aserver.Options{Logf: t.Logf, Devices: []aserver.DeviceSpec{
		{Kind: "codec", Name: "mic", Source: mic},
		{Kind: "codec", Name: "spkr", Sink: speaker},
	}})
	afAddr := "unix:" + rig.Listen(t, srv, "unix")

	// Record half a second to a self-describing WAV file...
	wav := filepath.Join(t.TempDir(), "clip.wav")
	run(t, nil, "arecord", "-a", afAddr, "-d", "0", "-l", "0.5", "-wav", wav)
	st, err := os.Stat(wav)
	if err != nil || st.Size() < 4000 {
		t.Fatalf("wav file: %v (%d bytes)", err, st.Size())
	}
	// ...then play it back through the second device; aplay sniffs the
	// container, checks the format against the device, and plays.
	run(t, nil, "aplay", "-a", afAddr, "-d", "1", "-f", wav)
	heard, _ := speaker.Bytes()
	if p := afutil.PowerMu(heard); p < -13 {
		t.Errorf("wav round trip heard at %.1f dBm", p)
	}
}

func TestAplayRejectsMismatchedContainer(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	srv := rig.Server(t, aserver.Options{Logf: t.Logf, Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0"}}})
	afAddr := "unix:" + rig.Listen(t, srv, "unix")
	// A lin16 stereo WAV cannot play on the µ-law mono codec.
	wav := filepath.Join(t.TempDir(), "bad.wav")
	f, err := os.Create(wav)
	if err != nil {
		t.Fatal(err)
	}
	snd := &sndfile.Sound{
		Info: sndfile.Info{Encoding: sampleconv.LIN16, Rate: 44100, Channels: 2},
		Data: make([]byte, 1024),
	}
	if err := sndfile.WriteWAV(f, snd); err != nil {
		t.Fatal(err)
	}
	f.Close()
	cmd := exec.Command(bin("aplay"), "-a", afAddr, wav)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("mismatched container accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "device") {
		t.Errorf("unhelpful error: %s", out)
	}
}

func TestAstatAgainstStatsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	srv := rig.Server(t, aserver.Options{Logf: t.Logf, Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0"}}})
	afAddr := "unix:" + rig.Listen(t, srv, "unix")
	sl, err := srv.ListenStats("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sl.Close() })

	// Generate real play traffic first so the scrape has counters to show.
	tone, _ := run(t, nil, "atone", "-f", "440", "-l", "0.3")
	run(t, []byte(tone), "aplay", "-a", afAddr, "-f", "-t", "0.05")

	out, _ := run(t, nil, "astat", "-a", sl.Addr().String(), "-once")
	if !strings.Contains(out, "codec0") {
		t.Errorf("astat output missing device name:\n%s", out)
	}
	if !strings.Contains(out, "connects 1") || !strings.Contains(out, "disconnects 1") {
		t.Errorf("astat output missing the aplay session's connect/disconnect:\n%s", out)
	}
	// The device line carries cumulative play bytes; 0.3 s at 8 kHz
	// µ-law is 2400 bytes.
	fields := strings.Fields(lineWith(out, "codec0"))
	if len(fields) < 2 || fields[1] != "2400" {
		t.Errorf("astat device line play-bytes = %v, want 2400:\n%s", fields, out)
	}
}

// lineWith returns the first output line containing substr.
func lineWith(out, substr string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, substr) {
			return l
		}
	}
	return ""
}
