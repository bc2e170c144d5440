package lineserver

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"audiofile/internal/atime"
	"audiofile/internal/core"
	"audiofile/internal/sampleconv"
	"audiofile/internal/vdev"
)

func TestPacketRoundTrip(t *testing.T) {
	p := &Packet{Seq: 42, Time: 123456, Fn: FnRecord, Param: 800, Data: []byte{1, 2, 3}}
	got, err := Parse(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 42 || got.Time != 123456 || got.Fn != FnRecord || got.Param != 800 ||
		!bytes.Equal(got.Data, p.Data) {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := Parse([]byte{1, 2}); err == nil {
		t.Error("short packet parsed")
	}
}

func TestQuickPacketRoundTrip(t *testing.T) {
	f := func(seq, tm, param uint32, fn uint8, data []byte) bool {
		p := &Packet{Seq: seq, Time: tm, Fn: fn, Param: param, Data: data}
		got, err := Parse(p.Marshal())
		if err != nil {
			return false
		}
		if len(data) == 0 {
			return got.Seq == seq && got.Time == tm && got.Fn == fn && got.Param == param
		}
		return got.Seq == seq && got.Time == tm && got.Fn == fn && got.Param == param &&
			bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// bootBox starts a manual-clock LineServer with a loopback cable and a
// backend connected to it.
func bootBox(t *testing.T) (*Firmware, *Backend, *vdev.ManualClock) {
	t.Helper()
	clk := vdev.NewManualClock(8000)
	lb := vdev.NewLoopback(8192, 1, 0, 0xFF)
	fw, err := NewFirmware(FirmwareConfig{Clock: clk, Sink: lb, Source: lb})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fw.Close)
	b, err := Dial(fw.Addr(), 8000, WithoutExtrapolation(), WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return fw, b, clk
}

func TestLoopbackPacket(t *testing.T) {
	_, b, _ := bootBox(t)
	payload := []byte("hello lineserver")
	got, ok := b.Loopback(payload)
	if !ok || !bytes.Equal(got, payload) {
		t.Errorf("loopback = %q, %v", got, ok)
	}
}

func TestRegisters(t *testing.T) {
	_, b, _ := bootBox(t)
	if !b.WriteReg(RegOutputGain, 0xABCD) {
		t.Fatal("WriteReg failed")
	}
	v, ok := b.ReadReg(RegOutputGain)
	if !ok || v != 0xABCD {
		t.Errorf("ReadReg = %#x, %v", v, ok)
	}
	if !b.Reset() {
		t.Fatal("Reset failed")
	}
	v, ok = b.ReadReg(RegOutputGain)
	if !ok || v != 0 {
		t.Errorf("register survived reset: %#x", v)
	}
}

func TestTimeTracksDevice(t *testing.T) {
	_, b, clk := bootBox(t)
	clk.Advance(4000)
	if got := b.Time(); got != 4000 {
		t.Errorf("Time = %d, want 4000", got)
	}
}

func TestPlayRecordOverUDP(t *testing.T) {
	_, b, clk := bootBox(t)
	data := make([]byte, 64)
	for i := range data {
		data[i] = sampleconv.EncodeMuLaw(int16(i * 100))
	}
	if n := b.WritePlay(0, data); n != 64 {
		t.Fatalf("WritePlay = %d", n)
	}
	clk.Advance(64)
	b.Time() // sync the box
	buf := make([]byte, 64)
	b.ReadRecord(0, buf)
	if !bytes.Equal(buf, data) {
		t.Errorf("UDP loopback mismatch:\n got %v\nwant %v", buf[:8], data[:8])
	}
}

func TestAudioFileServerOverLineServer(t *testing.T) {
	// The full Als design: an AudioFile core device whose backend is the
	// LineServer across (local) UDP.
	_, b, clk := bootBox(t)
	dev := core.NewDevice(core.Config{
		Name: "als0", Rate: 8000, Enc: sampleconv.MU255, Channels: 1,
	}, b)
	dev.RecRefCount = 1

	data := make([]byte, 400)
	for i := range data {
		data[i] = sampleconv.EncodeMuLaw(int16(2000 + i*10))
	}
	res := dev.Play(100, data, sampleconv.MU255, 0, false)
	if res.Consumed != 400 || res.Blocked {
		t.Fatalf("Play = %+v", res)
	}
	for i := 0; i < 4; i++ {
		clk.Advance(200)
		dev.Update()
	}
	buf := make([]byte, 400)
	rr := dev.Record(100, buf, sampleconv.MU255, 0)
	if rr.Avail != 400 {
		t.Fatalf("Record avail = %d", rr.Avail)
	}
	if !bytes.Equal(buf, data) {
		t.Error("audio corrupted crossing the LineServer")
	}
}

func TestBufferHitsAvoidDataTraffic(t *testing.T) {
	// "Client play and record requests that can be completely satisfied in
	// the server's buffers are completed without touching the LineServer
	// at all. Only requests that cover the update regions need to go
	// through." In no-extrapolation mode each request still refreshes the
	// time estimate with one loopback ping, so buffered requests cost at
	// most one packet each, while update-region traffic moves data packets.
	fw, b, clk := bootBox(t)
	dev := core.NewDevice(core.Config{
		Name: "als0", Rate: 8000, Enc: sampleconv.MU255, Channels: 1,
	}, b)
	dev.RecRefCount = 1
	clk.Advance(8000)
	dev.Update()
	before := fw.Packets()
	// A record entirely inside the already-updated server buffer.
	buf := make([]byte, 100)
	dev.Record(7000, buf, sampleconv.MU255, 0)
	// A play far beyond the hardware window (buffered only).
	dev.Play(atime.Add(dev.Now(), 10000), make([]byte, 100), sampleconv.MU255, 0, false)
	cheap := fw.Packets() - before
	if cheap > 2 {
		t.Errorf("buffer-hit requests generated %d packets, want <= 2 time pings", cheap)
	}
	// By contrast, an update pass after time advances must move data.
	before = fw.Packets()
	clk.Advance(2000)
	dev.Update()
	if moved := fw.Packets() - before; moved < 2 {
		t.Errorf("update-region pass generated only %d packets", moved)
	}
}

func TestBackendSurvivesDeadBox(t *testing.T) {
	fw, b, clk := bootBox(t)
	clk.Advance(100)
	b.Time()
	fw.Close()
	// With the box gone, reads deliver silence and writes don't wedge.
	buf := make([]byte, 32)
	if n := b.ReadRecord(0, buf); n != 32 {
		t.Errorf("ReadRecord = %d", n)
	}
	for _, v := range buf {
		if v != 0xFF {
			t.Fatal("dead box returned non-silence")
		}
	}
	b.WritePlay(0, make([]byte, 32))
	if _, ok := b.ReadReg(RegOutputGain); ok {
		t.Error("register read succeeded against dead box")
	}
}

// TestBackendDeadClosedTransport: once the backend's socket is closed,
// round trips must fail fast — SetReadDeadline errors are detected
// before the send, so the read can never block without a deadline —
// and the first failure is recorded on Err.
func TestBackendDeadClosedTransport(t *testing.T) {
	fw, b, _ := bootBox(t)
	fw.Close()
	b.Close()

	if err := b.Err(); err != nil {
		t.Fatalf("healthy session already recorded a transport error: %v", err)
	}
	start := time.Now()
	b.Time() // must not hang on a deadline-less read
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("Time on a closed backend took %v", el)
	}
	if b.Err() == nil {
		t.Error("closed transport did not record an error")
	}
	if _, ok := b.Loopback([]byte{1, 2, 3}); ok {
		t.Error("loopback succeeded on a closed transport")
	}
}
