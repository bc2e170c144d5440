//go:build linux && !race

package core

import (
	"os"
	"syscall"
	"testing"
	"unsafe"

	"audiofile/internal/sampleconv"
	"audiofile/internal/vdev"
)

// residentPages counts the pages of the page-aligned span b that are in
// memory, by mincore(2).
func residentPages(t *testing.T, b []byte) int {
	t.Helper()
	page := os.Getpagesize()
	vec := make([]byte, (len(b)+page-1)/page)
	_, _, errno := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), uintptr(unsafe.Pointer(&vec[0])))
	if errno != 0 {
		t.Fatalf("mincore: %v", errno)
	}
	n := 0
	for _, v := range vec {
		n += int(v & 1)
	}
	return n
}

// TestHiFiBufferCommitsOnTouch: a fresh hi-fi device's play buffer (1 MiB
// of lin16, whose silence is 0) has no page in memory, and a 24 KiB play
// brings in only the pages it spans: 7, as it starts 400 bytes into one.
func TestHiFiBufferCommitsOnTouch(t *testing.T) {
	clk := vdev.NewManualClock(44100)
	clk.Set(100)
	hw := vdev.New(vdev.Config{
		Name: "hifi", Rate: 44100, Enc: sampleconv.LIN16, Channels: 2,
		HWFrames: 4096, Clock: clk, Sink: vdev.DiscardSink{},
	})
	d := NewDevice(Config{Name: "hifi", Rate: 44100, Enc: sampleconv.LIN16, Channels: 2}, hw)
	t.Cleanup(d.Close)
	buf, _ := d.playBuf.Region(0, d.bufFrames)
	if n := residentPages(t, buf); n != 0 {
		t.Fatalf("a fresh play buffer has %d resident pages, want 0", n)
	}
	data := make([]byte, 24<<10)
	for i := range data {
		data[i] = byte(i) | 1
	}
	if res := d.Play(d.Now(), data, sampleconv.LIN16, 0, true); res.Consumed != len(data)/4 {
		t.Fatalf("play %+v", res)
	}
	page := os.Getpagesize()
	off := 100 * 4
	spanned := (off+len(data)-1)/page - off/page + 1
	if n := residentPages(t, buf); n == 0 || n > spanned {
		t.Errorf("after a 24 KiB play the play buffer has %d resident pages, want 1 to %d", n, spanned)
	}
}
