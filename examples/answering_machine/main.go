// Answering machine: the §8.6 "trivial answering machine" shell script,
// reimplemented as a Go program against the simulated telephone line.
//
// The sequence is exactly the script's: wait for the phone to ring twice,
// answer it, play the outgoing message, record the caller until silence,
// play a thank-you beep, and hang up. A scripted "caller" goroutine plays
// the exchange: it rings the line, speaks (a tone burst stands in for
// speech), punches a Touch-Tone digit, and goes quiet.
package main

import (
	"fmt"
	"log"
	"time"

	"audiofile/af"
	"audiofile/afutil"
	"audiofile/aserver"
)

func main() {
	srv, err := aserver.New(aserver.Options{
		Devices: []aserver.DeviceSpec{{Kind: "phone", Name: "phone0"}},
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

	phone := conn.FindPhoneDevice()
	rate := conn.Devices()[phone].PlaySampleFreq
	if err := conn.SelectEvents(phone, af.MaskAllEvents); err != nil {
		log.Fatal(err)
	}
	if err := conn.Sync(); err != nil {
		log.Fatal(err)
	}

	// The scripted caller.
	go caller(srv)

	// aevents -ringcount 2: wait for the second ring.
	rings := 0
	for rings < 2 {
		ev, err := conn.NextEvent()
		if err != nil {
			log.Fatal(err)
		}
		if ev.Code == af.EventPhoneRing && ev.Detail == 1 {
			rings++
			fmt.Printf("ring %d\n", rings)
		}
	}

	// ahs off: answer.
	if err := conn.HookSwitch(phone, true); err != nil {
		log.Fatal(err)
	}
	fmt.Println("answered")

	ac, err := conn.CreateAC(phone, 0, af.ACAttributes{})
	if err != nil {
		log.Fatal(err)
	}

	// aplay -f outgoing_message.snd: a two-second two-tone greeting.
	greeting := make([]byte, 2*rate)
	afutil.TonePair(440, -10, 660, -12, 80, rate, greeting)
	now, _ := ac.GetTime()
	start := now.Add(rate / 10)
	if _, err := ac.PlaySamples(start, greeting); err != nil {
		log.Fatal(err)
	}
	// aplay -f beep.snd.
	beep := make([]byte, rate/4)
	afutil.TonePair(1000, -6, 0, -120, 40, rate, beep)
	beepAt := start.Add(len(greeting))
	if _, err := ac.PlaySamples(beepAt, beep); err != nil {
		log.Fatal(err)
	}
	fmt.Println("played greeting and beep")

	// arecord -silentlevel -35 -silenttime 1 -l 8 -t -0.2: record the
	// caller starting just before the beep ends, until a second of
	// silence or eight seconds pass.
	t := beepAt.Add(len(beep) - rate/5)
	var message []byte
	silentRun := 0.0
	block := rate / 8
	buf := make([]byte, block)
	for len(message) < 8*rate {
		if _, n, err := ac.RecordSamples(t, buf, true); err != nil || n == 0 {
			break
		}
		message = append(message, buf...)
		t = t.Add(block)
		if afutil.PowerMu(buf) < -35 {
			silentRun += float64(block) / float64(rate)
			if silentRun >= 1.0 {
				break
			}
		} else {
			silentRun = 0
		}
	}
	fmt.Printf("recorded %.1f seconds of message\n", float64(len(message))/float64(rate))

	// ahs on: hang up.
	if err := conn.HookSwitch(phone, false); err != nil {
		log.Fatal(err)
	}
	fmt.Println("hung up")

	// Check for any digits the caller punched (e.g. a menu choice).
	for {
		n, err := conn.EventsQueued(af.QueuedAfterReading)
		if err != nil || n == 0 {
			break
		}
		ev, _ := conn.NextEvent()
		if ev != nil && ev.Code == af.EventPhoneDTMF {
			fmt.Printf("caller pressed '%c'\n", ev.Detail)
		}
	}

	power := afutil.PowerMu(message)
	fmt.Printf("message power: %.1f dBm\n", power)
	if power < -40 {
		log.Fatal("answering machine recorded only silence")
	}
	fmt.Println("ok")
}

// caller scripts the far end of the call.
func caller(srv *aserver.Server) {
	line := srv.PhoneLine(0)
	// Two rings, a second apart.
	line.RingPulse()
	time.Sleep(time.Second)
	line.RingPulse()
	// Wait out the greeting and beep (~2.5 s after answer), then talk.
	time.Sleep(3 * time.Second)
	speech := make([]byte, 2*8000)
	afutil.TonePair(300, -12, 520, -14, 200, 8000, speech)
	line.RemoteAudio(speech)
	// Press a digit at the end.
	line.RemoteDigits("3")
	// Then silence: the machine's silence detector ends the recording.
}
