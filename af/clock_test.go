package af_test

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"testing/quick"

	"audiofile/af"
	"audiofile/internal/proto"
)

// TestVersionMismatchRefused: a client announcing the wrong protocol
// major is refused at setup with a reason.
func TestVersionMismatchRefused(t *testing.T) {
	r := newStack(t)
	nc, err := net.Dial("unix", r.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	rep, err := proto.Setup(major99{nc}, nc, binary.LittleEndian, "", nil)
	if rep == nil {
		t.Fatal(err)
	}
	if rep.Success {
		t.Fatal("version 99 accepted")
	}
	if rep.Reason == "" {
		t.Error("refusal carries no reason")
	}
	if rep.Major != proto.ProtocolMajor {
		t.Errorf("refusal reports server version %d", rep.Major)
	}
}

// major99 sends a setup request as a client of protocol version 99.0:
// its major and minor words (request bytes 2–5) are rewritten.
type major99 struct{ io.Writer }

func (w major99) Write(p []byte) (int, error) {
	q := append([]byte(nil), p...)
	binary.LittleEndian.PutUint16(q[2:], 99)
	binary.LittleEndian.PutUint16(q[4:], 0)
	return w.Writer.Write(q)
}

// TestCorrespondenceAcrossDevices: schedule by converting time between
// the 8 kHz codec clock and the 44.1 kHz hifi clock.
func TestCorrespondenceAcrossDevices(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	codec, err := c.CreateAC(1, 0, af.ACAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	hifi, err := c.CreateAC(2, 0, af.ACAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	r.step(800) // both clocks advance in their own units

	corr, err := af.NewCorrespondence(codec, hifi)
	if err != nil {
		t.Fatal(err)
	}
	// One second in codec ticks maps to one second in hifi ticks.
	ta := corr.Ta.Add(8000)
	tb := corr.AtoB(ta)
	if d := af.TimeSub(tb, corr.Tb); d < 44090 || d > 44110 {
		t.Errorf("1 s on codec maps to %d hifi ticks, want ~44100", d)
	}
	// Round trip returns within rounding error.
	back := corr.BtoA(tb)
	if d := af.TimeSub(back, ta); d < -2 || d > 2 {
		t.Errorf("round trip error = %d ticks", d)
	}
	// The stack's clocks advance in lockstep (step() scales them), so a
	// converted "now" lands near the other device's actual now.
	nowA, _ := codec.GetTime()
	nowB, _ := hifi.GetTime()
	pred := corr.AtoB(nowA)
	if d := af.TimeSub(pred, nowB); d < -4420 || d > 4420 { // within 100 ms
		t.Errorf("converted now off by %d hifi ticks", d)
	}
}

// TestCorrespondence: the paper's formula converts exactly between an
// 8 kHz and a 48 kHz clock observed together at (1000, 5000).
func TestCorrespondence(t *testing.T) {
	c := af.Correspondence{Ta: 1000, Tb: 5000, Ra: 8000, Rb: 48000}
	// One second later on A is 8000 ticks; on B it is 48000 ticks.
	if tb := c.AtoB(af.ATime(1000).Add(8000)); tb != af.ATime(5000).Add(48000) {
		t.Errorf("AtoB = %d, want %d", tb, af.ATime(5000).Add(48000))
	}
	if ta := c.BtoA(af.ATime(5000).Add(48000)); ta != af.ATime(1000).Add(8000) {
		t.Errorf("BtoA = %d, want %d", ta, af.ATime(1000).Add(8000))
	}
}

// TestCorrespondenceDrift: two nominal 8 kHz clocks, one 100 ppm fast.
// After a nominal hour the conversion differs by about 0.36 s (2880
// ticks).
func TestCorrespondenceDrift(t *testing.T) {
	c := af.Correspondence{Ta: 0, Tb: 0, Ra: 8000, Rb: 8000.8}
	tb := c.AtoB(8000 * 3600)
	if drift := af.TimeSub(tb, 8000*3600); drift < 2800 || drift > 2960 {
		t.Errorf("drift = %d ticks, want ~2880", drift)
	}
}

// Property: a correspondence round-trips within rounding error.
func TestQuickCorrespondenceRoundTrip(t *testing.T) {
	c := af.Correspondence{Ta: 12345, Tb: 67890, Ra: 8000, Rb: 44100}
	f := func(off int32) bool {
		// Keep the offset small enough that float rounding stays tiny.
		off %= 1 << 24
		ta := c.Ta.Add(int(off))
		d := af.TimeSub(c.BtoA(c.AtoB(ta)), ta)
		return d >= -8 && d <= 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
