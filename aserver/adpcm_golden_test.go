package aserver

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"audiofile/afutil"
	"audiofile/internal/atime"
	"audiofile/internal/proto"
	"audiofile/internal/sampleconv"
	"audiofile/internal/vdev"
)

var updateADPCMGolden = flag.Bool("update-adpcm-golden", false,
	"rewrite testdata/adpcm_golden from what the server answers")

// TestADPCMWireGolden pins the compressed conversion module's reply bytes
// through the whole server, in both wire orders: an ADPCM context on a
// looped-back codec plays a sine, full-scale steps (which park beyond the
// buffer horizon) and more sine, then records them back — blocking across
// the plays, non-blocking with an odd number of frames available, and
// non-blocking from the past. The stream is compared with
// testdata/adpcm_golden/<order>.golden, and every frame buffer the plays
// borrowed must be back once the connection is gone.
func TestADPCMWireGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		order binary.ByteOrder
		flags uint8 // what a client of that order sets on its samples
	}{
		{"little", binary.LittleEndian, 0},
		{"big", binary.BigEndian, proto.SampleFlagBigEndian},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runADPCMGoldenScript(t, tc.order, tc.flags)
			path := filepath.Join("testdata", "adpcm_golden", tc.name+".golden")
			if *updateADPCMGolden {
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
				at := 0
				for at < len(got) && at < len(want) && got[at] == want[at] {
					at++
				}
				t.Fatalf("reply stream (%d bytes) differs from %s (%d bytes) at offset %d", len(got), path, len(want), at)
			}
		})
	}
}

// runADPCMGoldenScript runs the script over one raw connection in order
// and returns the reply stream.
func runADPCMGoldenScript(t *testing.T, order binary.ByteOrder, flags uint8) []byte {
	t.Helper()
	clk := vdev.NewManualClock(8000)
	srv, err := New(Options{
		Devices: []DeviceSpec{{Kind: "codec", Clock: clk, Loopback: true, BufSeconds: 0.5}},
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	before := lent(srv)
	nc := srv.DialPipe()
	defer nc.Close()
	if _, err := proto.Setup(nc, nc, order, "", nil); err != nil {
		t.Fatal(err)
	}
	replies := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(nc)
		replies <- b
	}()

	d, e := srv.Device(0), srv.engineByDev[0]
	hw := d.Backend().HWFrames()
	step, usable := hw/4, d.BufFrames()-hw
	if usable-1024 < hw {
		t.Fatalf("a %d-frame buffer leaves no room for the script beside %d hardware frames", d.BufFrames(), hw)
	}
	now := func() atime.ATime {
		e.mu.Lock()
		defer e.mu.Unlock()
		return d.Now()
	}
	sent := uint64(0)
	send := func(build func(w *proto.Writer) error) {
		t.Helper()
		w := proto.Writer{Order: order}
		if err := build(&w); err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(w.Buf); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	// await returns once every request sent has been dispatched and parked
	// of them are still parked.
	await := func(parked int64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); dispatched(srv) != sent || outstanding(e) != parked; {
			if time.Now().After(deadline) {
				t.Fatalf("dispatched %d of %d requests, %d parked (want %d)", dispatched(srv), sent, outstanding(e), parked)
			}
			runtime.Gosched()
		}
	}
	// until moves the clock a step at a time, with an update after each,
	// to the first step at or past end.
	until := func(end atime.ATime) {
		for atime.Before(now(), end) {
			clk.Advance(step)
			srv.Sync()
		}
	}
	play := func(at atime.ATime, samples []int16) {
		send(func(w *proto.Writer) error {
			return proto.AppendPlaySamples(w, proto.PlaySamplesReq{AC: 1, Time: uint32(at), Flags: flags,
				Data: afutil.CompressADPCM(samples)})
		})
	}
	record := func(at atime.ATime, frames int, noBlock bool) {
		f := flags
		if noBlock {
			f |= proto.SampleFlagNoBlock
		}
		send(func(w *proto.Writer) error {
			return proto.AppendRecordSamples(w, proto.RecordSamplesReq{AC: 1, Time: uint32(at),
				NBytes: uint32(sampleconv.ADPCM4.BytesPerSamples(frames)), Flags: f})
		})
	}
	sine := func(n, phase int) []int16 {
		s := make([]int16, n)
		for i := range s {
			s[i] = int16(math.Round(12000 * math.Sin(2*math.Pi*float64(i+phase)/37)))
		}
		return s
	}
	steps := make([]int16, 1024)
	for i := range steps {
		steps[i] = math.MaxInt16
		if i/16%2 == 1 {
			steps[i] = math.MinInt16
		}
	}

	send(func(w *proto.Writer) error {
		return proto.AppendCreateAC(w, proto.CreateACReq{AC: 1, Device: 0,
			Mask: proto.ACEncoding, Attrs: proto.ACAttributes{Type: uint8(sampleconv.ADPCM4)}})
	})
	record(0, 8, true) // the device captures only while a context records
	await(0)

	t0 := now()
	a := atime.Add(t0, usable-1024)
	play(a, sine(512, 0)) // fits
	await(0)
	play(atime.Add(a, 512), steps) // its last 512 frames lie beyond the horizon
	await(1)
	until(atime.Add(t0, 512))
	await(0)
	until(atime.Add(t0, 1536))
	play(atime.Add(a, 1536), sine(512, 512)) // fits
	await(0)
	record(a, 2048, false) // waits for the last play to loop back
	await(1)
	until(atime.Add(a, 2048))
	await(0)
	record(atime.Add(now(), -301), 1024, true) // 301 frames available
	record(atime.Add(a, 256), 512, true)
	await(0)

	if got := srv.Snapshot().Devices[0].ParksStarted; got != 2 {
		t.Errorf("%d parks started, want 2: the script no longer parks what it means to", got)
	}
	for deadline := time.Now().Add(10 * time.Second); srv.Snapshot().QueuedBytes != 0; {
		if time.Now().After(deadline) {
			t.Fatal("replies never left the queue")
		}
		runtime.Gosched()
	}
	nc.Close()
	stream := <-replies
	// The reader may hold an ingress buffer while it waits, so the count
	// is compared once the connection is gone.
	for deadline := time.Now().Add(10 * time.Second); lent(srv) != before; {
		if time.Now().After(deadline) {
			t.Fatalf("frame_bytes_in_flight %d after the script, want %d", lent(srv), before)
		}
		runtime.Gosched()
	}
	return stream
}
