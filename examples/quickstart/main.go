// Quickstart: the smallest complete AudioFile program. It embeds a
// server with a loopback-wired CODEC device, connects as a client, plays
// a dial tone at an exact device time, records the same interval back
// through the loopback cable, and verifies the audio survived the trip.
//
// The point to notice is the explicit use of device time: the client
// decides exactly when the sound plays and exactly which interval it
// records — there is no stream to synchronize, only timestamps.
package main

import (
	"fmt"
	"log"

	"audiofile/af"
	"audiofile/afutil"
	"audiofile/aserver"
)

func main() {
	// An in-process server: one local CODEC whose output is patched to
	// its input. (Point af.Open at a running afd to use a real one.)
	srv, err := aserver.New(aserver.Options{
		Devices: []aserver.DeviceSpec{
			{Kind: "codec", Name: "codec0", Loopback: true},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	conn, err := af.NewConn(srv.DialPipe())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	dev := conn.FindDefaultDevice()
	d := conn.Devices()[dev]
	fmt.Printf("connected to %q: device %d (%s), %d Hz %v\n",
		conn.Vendor(), dev, d.Name, d.PlaySampleFreq, d.PlayBufType)

	ac, err := conn.CreateAC(dev, 0, af.ACAttributes{})
	if err != nil {
		log.Fatal(err)
	}

	// Render one second of North American dial tone (Table 7).
	spec := afutil.CallProgressTones["dialtone"]
	tone := make([]byte, d.PlaySampleFreq)
	afutil.TonePair(spec.F1, spec.DB1, spec.F2, spec.DB2, 40, d.PlaySampleFreq, tone)

	// Schedule it a quarter second in the future, to the sample.
	now, err := ac.GetTime()
	if err != nil {
		log.Fatal(err)
	}
	start := now.Add(d.PlaySampleFreq / 4)
	if _, err := ac.PlaySamples(start, tone); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scheduled %d samples at device time %d (now %d)\n", len(tone), start, now)

	// Record the exact same interval. The blocking record returns the
	// moment the last requested sample has been captured.
	buf := make([]byte, len(tone))
	endTime, n, err := ac.RecordSamples(start, buf, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d bytes; device time is now %d\n", n, endTime)

	// The loopback means the recording is the tone we played.
	p := afutil.PowerMu(buf)
	fmt.Printf("recorded signal power: %.1f dBm (dial tone is two -13 dBm tones ≈ -10 dBm)\n", p)
	if p < -13 || p > -7 {
		log.Fatal("quickstart: loopback audio missing or mangled")
	}
	fmt.Println("ok")
}
