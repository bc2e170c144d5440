package e2etest

import (
	"fmt"
	"net"
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

func init() {
	contribBins = []string{"audiofile/cmd/radio", "audiofile/cmd/abiff"}
}

var contribBins []string

func buildContrib(t *testing.T) {
	t.Helper()
	args := append([]string{"build", "-o", binDir + "/"}, contribBins...)
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		t.Fatalf("building contrib clients: %v\n%s", err, out)
	}
}

func freeUDPPort(t *testing.T) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pc.LocalAddr().String()
	pc.Close()
	return addr
}

func TestRadioStdinToReceiver(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	buildContrib(t)
	speaker := &vdev.CaptureSink{Max: 1 << 20}
	srv := rig.Server(t, aserver.Options{Logf: t.Logf, Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Sink: speaker}}})
	afAddr := "unix:" + rig.Listen(t, srv, "unix")
	addr := freeUDPPort(t)

	// Receiver first (unicast listen), then transmit a one-second tone
	// from stdin in 50 ms datagrams.
	recvDone := make(chan error, 1)
	recvCmd := exec.Command(bin("radio"), "-recv", "-a", afAddr, "-addr", addr, "-n", "20",
		"-delay", "0.2")
	recvCmd.Stderr = os.Stderr
	if err := recvCmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { recvDone <- recvCmd.Wait() }()
	time.Sleep(200 * time.Millisecond) // let it bind

	tone, _ := run(t, nil, "atone", "-f", "880", "-p", "-8", "-l", "1")
	sendCmd := exec.Command(bin("radio"), "-send", "-stdin", "-addr", addr, "-n", "20")
	sendCmd.Stdin = strings.NewReader(tone)
	if out, err := sendCmd.CombinedOutput(); err != nil {
		t.Fatalf("radio -send: %v\n%s", err, out)
	}

	select {
	case err := <-recvDone:
		if err != nil {
			t.Fatalf("radio -recv: %v", err)
		}
	case <-time.After(10 * time.Second):
		recvCmd.Process.Kill() //nolint:errcheck
		t.Fatal("receiver did not finish")
	}
	// Give the playout delay time to drain to the speaker.
	time.Sleep(1500 * time.Millisecond)
	heard, _ := speaker.Bytes()
	if p := afutil.PowerMu(heard); p < -25 {
		t.Errorf("radio speaker heard only %.1f dBm", p)
	}
}

func TestAbiffChimesOnNewMail(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	buildContrib(t)
	speaker := &vdev.CaptureSink{Max: 1 << 20}
	srv := rig.Server(t, aserver.Options{Logf: t.Logf, Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Sink: speaker}}})
	afAddr := "unix:" + rig.Listen(t, srv, "unix")

	mbox := filepath.Join(t.TempDir(), "mbox")
	if err := os.WriteFile(mbox, []byte("From old\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin("abiff"), "-a", afAddr, "-f", mbox,
		"-poll", "100ms", "-n", "1")
	var out strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	f, err := os.OpenFile(mbox, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(f, "From new-sender\nSubject: hi\n\nbody")
	f.Close()

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("abiff: %v", err)
		}
	case <-time.After(10 * time.Second):
		cmd.Process.Kill() //nolint:errcheck
		t.Fatal("abiff never noticed the mail")
	}
	if !strings.Contains(out.String(), "new mail") {
		t.Errorf("abiff output: %q", out.String())
	}
	time.Sleep(800 * time.Millisecond) // chime plays out
	heard, _ := speaker.Bytes()
	if p := afutil.PowerMu(heard); p < -25 {
		t.Errorf("chime heard at only %.1f dBm", p)
	}
}

func TestAbrowsePlaysSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	args := append([]string{"build", "-o", binDir + "/"}, "audiofile/cmd/abrowse")
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("building abrowse: %v\n%s", err, out)
	}
	speaker := &vdev.CaptureSink{Max: 1 << 20}
	srv := rig.Server(t, aserver.Options{Logf: t.Logf, Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Sink: speaker}}})
	afAddr := "unix:" + rig.Listen(t, srv, "unix")

	// A directory with one playable clip (µ-law WAV) and one decoy.
	dir := t.TempDir()
	tone, _ := run(t, nil, "atone", "-f", "700", "-p", "-8", "-l", "0.4")
	f, err := os.Create(filepath.Join(dir, "clip.wav"))
	if err != nil {
		t.Fatal(err)
	}
	snd := &sndfile.Sound{
		Info: sndfile.Info{Encoding: sampleconv.MU255, Rate: 8000, Channels: 1},
		Data: []byte(tone),
	}
	if err := sndfile.WriteWAV(f, snd); err != nil {
		t.Fatal(err)
	}
	f.Close()
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("not audio"), 0o644) //nolint:errcheck

	// -list mode shows the clip with its metadata.
	out, _ := run(t, nil, "abrowse", "-list", dir)
	if !strings.Contains(out, "clip.wav") || !strings.Contains(out, "MU255") ||
		strings.Contains(out, "notes.txt") {
		t.Fatalf("abrowse -list:\n%s", out)
	}

	// Interactive mode: select entry 0, then quit.
	out, _ = run(t, []byte("0\nq\n"), "abrowse", "-a", afAddr, dir)
	if !strings.Contains(out, "clip.wav") {
		t.Fatalf("abrowse interactive:\n%s", out)
	}
	heard, _ := speaker.Bytes()
	if p := afutil.PowerMu(heard); p < -14 {
		t.Errorf("abrowse playback heard at %.1f dBm", p)
	}
}
