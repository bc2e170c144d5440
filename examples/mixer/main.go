// Mixer: the output model of §2.2 with multiple simultaneous clients.
// Three independent connections play overlapping tones into the same
// device — "two audio applications running on a single computer should
// behave just like those same applications running on separate computers
// in the same room" — and the server mixes them. A fourth client then
// preempts with an urgent announcement that overwrites the mix.
package main

import (
	"fmt"
	"log"

	"audiofile/af"
	"audiofile/afutil"
	"audiofile/aserver"
	"audiofile/internal/vdev"
)

func main() {
	speaker := &vdev.CaptureSink{Max: 1 << 20}
	srv, err := aserver.New(aserver.Options{
		Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Sink: speaker}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// Three clients, three tones, one device.
	freqs := []float64{440, 550, 660}
	conns := make([]*af.Conn, len(freqs))
	acs := make([]*af.AC, len(freqs))
	for i := range conns {
		conns[i], err = af.NewConn(srv.DialPipe())
		if err != nil {
			log.Fatal(err)
		}
		defer conns[i].Close()
		acs[i], err = conns[i].CreateAC(0, 0, af.ACAttributes{})
		if err != nil {
			log.Fatal(err)
		}
	}
	rate := conns[0].Devices()[0].PlaySampleFreq

	// All three schedule the same interval; the server mixes.
	now, err := acs[0].GetTime()
	if err != nil {
		log.Fatal(err)
	}
	start := now.Add(rate / 4)
	second := rate
	for i, f := range freqs {
		tone := make([]byte, second)
		afutil.TonePair(f, -13, 0, -120, 40, rate, tone)
		if _, err := acs[i].PlaySamples(start, tone); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("client %d scheduled a %.0f Hz tone at time %d\n", i, f, start)
	}

	// A fourth client preempts the middle 200 ms with an urgent tone:
	// preemptive play overwrites the mixed data already in place.
	urgent, err := af.NewConn(srv.DialPipe())
	if err != nil {
		log.Fatal(err)
	}
	defer urgent.Close()
	uac, err := urgent.CreateAC(0, af.ACPreemption, af.ACAttributes{Preempt: true})
	if err != nil {
		log.Fatal(err)
	}
	alarm := make([]byte, rate/5)
	afutil.TonePair(1500, -6, 0, -120, 40, rate, alarm)
	alarmAt := start.Add(2 * rate / 5)
	if _, err := uac.PlaySamples(alarmAt, alarm); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("urgent client preempted %d samples at time %d\n", len(alarm), alarmAt)

	// Wait for it all to play out, then inspect what the speaker heard.
	endAt := start.Add(second)
	buf := make([]byte, 1)
	if _, _, err := acs[0].RecordSamples(endAt, buf, true); err != nil {
		log.Fatal(err)
	}

	heard, heardStart := speaker.Bytes()
	// Index of a frame inside the capture.
	at := func(t af.ATime) int { return int(af.TimeSub(t, af.ATime(heardStart))) }

	mixRegion := heard[at(start.Add(rate/10)):at(start.Add(3*rate/10))]
	alarmRegion := heard[at(alarmAt.Add(len(alarm)/4)):at(alarmAt.Add(3*len(alarm)/4))]

	pMix := afutil.PowerMu(mixRegion)
	pAlarm := afutil.PowerMu(alarmRegion)
	fmt.Printf("mixed region power:   %.1f dBm (three -13 dBm tones ≈ -8.2 dBm)\n", pMix)
	fmt.Printf("preempted region:     %.1f dBm (one -6 dBm tone)\n", pAlarm)

	if pMix < -11 || pMix > -5 {
		log.Fatal("mixing did not produce the expected level")
	}
	if pAlarm < -8 || pAlarm > -4 {
		log.Fatal("preemption did not produce the expected level")
	}
	fmt.Println("ok")
}
