package af_test

import (
	"bytes"
	"testing"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/internal/lineserver"
	"audiofile/internal/rig"
	"audiofile/internal/sampleconv"
	"audiofile/internal/vdev"
)

// TestLineServerDeviceOverProtocol runs the full Als stack (§7.4.3): an
// AudioFile client talks the AudioFile protocol to a server whose audio
// device is a LineServer box reached over its private UDP protocol.
func TestLineServerDeviceOverProtocol(t *testing.T) {
	clk := vdev.NewManualClock(8000)
	lb := vdev.NewLoopback(8192, 1, 0, 0xFF)
	fw, err := lineserver.NewFirmware(lineserver.FirmwareConfig{
		Clock: clk, Sink: lb, Source: lb,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fw.Close)

	srv := rig.Server(t, aserver.Options{
		Logf: t.Logf,
		Devices: []aserver.DeviceSpec{
			{Kind: "lineserver", Name: "als0", Addr: fw.Addr(), LSNoExtrapolate: true},
		},
	})

	c, err := af.NewConn(srv.DialPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	devs := c.Devices()
	if len(devs) != 1 || devs[0].Name != "als0" || devs[0].PlaySampleFreq != 8000 {
		t.Fatalf("devices = %+v", devs)
	}

	ac, err := c.CreateAC(0, 0, af.ACAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	// Prime recording so the periodic updates pull record data.
	now, _ := ac.GetTime()
	ac.RecordSamples(now.Add(-4), make([]byte, 4), false) //nolint:errcheck

	data := make([]byte, 400)
	for i := range data {
		data[i] = sampleconv.EncodeMuLaw(int16(3000 + 10*i))
	}
	start := now.Add(100)
	if _, err := ac.PlaySamples(start, data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		clk.Advance(200)
		srv.Sync()
	}
	buf := make([]byte, 400)
	_, n, err := ac.RecordSamples(start, buf, true)
	if err != nil || n != 400 {
		t.Fatal(err, n)
	}
	if !bytes.Equal(buf, data) {
		t.Error("audio corrupted across the LineServer protocol stack")
	}
	if fw.Packets() == 0 {
		t.Error("no UDP packets reached the box")
	}
}
