package afutil_test

import (
	"testing"
	"time"

	"audiofile/af"
	"audiofile/afutil"
	"audiofile/aserver"
	"audiofile/internal/rig"
	"audiofile/internal/vdev"
)

// TestDialPhoneDetectedByLine proves the paper's client-side dialing
// design end to end: AFDialPhone synthesizes Touch-Tone bursts as timed
// play requests; the played audio goes down the (simulated) telephone
// line, whose decoder recognizes the digits and raises DTMF events.
func TestDialPhoneDetectedByLine(t *testing.T) {
	clk := vdev.NewManualClock(8000)
	srv := rig.Server(t, aserver.Options{
		Logf: t.Logf,
		Devices: []aserver.DeviceSpec{
			{Kind: "phone", Name: "phone0", Clock: clk},
		},
	})
	c, err := af.NewConn(srv.DialPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.SelectEvents(0, af.MaskPhoneDTMF); err != nil {
		t.Fatal(err)
	}
	if err := c.HookSwitch(0, true); err != nil {
		t.Fatal(err)
	}
	ac, err := c.CreateAC(0, 0, af.ACAttributes{})
	if err != nil {
		t.Fatal(err)
	}

	const number = "555-1212"
	end, err := afutil.DialPhone(ac, number)
	if err != nil {
		t.Fatal(err)
	}
	if end == 0 {
		t.Fatal("DialPhone returned zero time")
	}

	// Let the dialing play out on the simulated hardware.
	deadline := time.Now().Add(5 * time.Second)
	var digits []byte
	for len(digits) < 7 && time.Now().Before(deadline) {
		clk.Advance(400)
		srv.Sync()
		for {
			n, err := c.EventsQueued(af.QueuedAfterReading)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			ev, err := c.NextEvent()
			if err != nil {
				t.Fatal(err)
			}
			if ev.Code == af.EventPhoneDTMF {
				digits = append(digits, ev.Detail)
			}
		}
	}
	if string(digits) != "5551212" {
		t.Errorf("line decoded %q, want 5551212", digits)
	}
}
