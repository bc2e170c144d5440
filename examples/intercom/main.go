// Intercom: the apass scenario of §8.3 — record from a device on one
// AudioFile server and play, after a strict delay budget, on a device of
// a *different* server whose sample clock runs at a slightly different
// rate (crystal tolerance, here an exaggerated 2000 ppm so the effect
// shows up within seconds).
//
// The two servers' device times cannot be compared directly; the loop is
// paced by the transmit server's blocking record, and the receiver-side
// slack (tt - tactt) is tracked so that when clock drift pushes the
// end-to-end delay outside the anti-jitter band, the connection
// resynchronizes — the paper's "audible blip".
package main

import (
	"fmt"
	"log"

	"audiofile/af"
	"audiofile/afutil"
	"audiofile/aserver"
	"audiofile/internal/sampleconv"
	"audiofile/internal/vdev"
)

func main() {
	// Transmit server: its microphone hears a 440 Hz tone.
	mic := vdev.SineSource{Freq: 440, Amp: 6000, Rate: 8000, Enc: sampleconv.MU255, Ch: 1}
	txSrv, err := aserver.New(aserver.Options{
		Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "mic", Source: mic}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer txSrv.Close()

	// Receive server: 2000 ppm fast, speaker captured for inspection.
	speaker := &vdev.CaptureSink{Max: 1 << 20}
	rxSrv, err := aserver.New(aserver.Options{
		Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "spkr", PPM: 2000, Sink: speaker}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rxSrv.Close()

	faud, err := af.NewConn(txSrv.DialPipe())
	if err != nil {
		log.Fatal(err)
	}
	defer faud.Close()
	taud, err := af.NewConn(rxSrv.DialPipe())
	if err != nil {
		log.Fatal(err)
	}
	defer taud.Close()

	fac, err := faud.CreateAC(0, 0, af.ACAttributes{})
	if err != nil {
		log.Fatal(err)
	}
	tac, err := taud.CreateAC(0, 0, af.ACAttributes{})
	if err != nil {
		log.Fatal(err)
	}

	const (
		delaySamples = 2400 // 300 ms end-to-end budget
		ajSamples    = 80   // ±10 ms anti-jitter band
		blockSamples = 800  // 100 ms packetization
	)
	buf := make([]byte, blockSamples)

	ft, err := fac.GetTime()
	if err != nil {
		log.Fatal(err)
	}
	tt0, err := tac.GetTime()
	if err != nil {
		log.Fatal(err)
	}
	tt := tt0.Add(delaySamples)

	resyncs := 0
	var hist [4]int
	for i := range hist {
		hist[i] = delaySamples // seed so startup does not look like drift
	}
	fmt.Println("passing 6 seconds of audio between clock domains (rx runs 2000 ppm fast)...")
	for block := 0; block < 60; block++ {
		// Pacing flow control: the source server blocks until the block
		// has been captured.
		if _, n, err := fac.RecordSamples(ft, buf, true); err != nil || n != len(buf) {
			log.Fatalf("record: n=%d err=%v", n, err)
		}
		tactt, err := tac.PlaySamples(tt, buf)
		if err != nil {
			log.Fatal(err)
		}
		hist[block%len(hist)] = int(af.TimeSub(tt, tactt))
		slip := 0
		for _, v := range hist {
			slip += v
		}
		slip /= len(hist)
		if block >= len(hist) && (slip < delaySamples-ajSamples || slip >= delaySamples+ajSamples) {
			tt = tactt.Add(delaySamples)
			resyncs++
			for i := range hist {
				hist[i] = delaySamples // restart the average after resync
			}
			fmt.Printf("  block %2d: slip %d samples out of band, resynchronized\n", block, slip)
		}
		ft = ft.Add(blockSamples)
		tt = tt.Add(blockSamples)
	}

	// The receiver clock gains 2000 ppm * 6 s = 96 samples against the
	// transmitter; with an 80-sample band the connection must have
	// resynchronized at least once.
	fmt.Printf("resyncs: %d\n", resyncs)
	if resyncs == 0 {
		log.Fatal("intercom: expected at least one clock resynchronization")
	}

	// The speaker really heard the tone.
	heard, _ := speaker.Bytes()
	if p := afutil.PowerMu(heard); p < -30 {
		log.Fatalf("intercom: speaker heard only %.1f dBm", p)
	} else {
		fmt.Printf("speaker signal power: %.1f dBm\n", p)
	}
	fmt.Println("ok")
}
