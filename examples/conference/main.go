// Conference: the application AudioFile was built to enable.
// "Teleconferencing ... must communicate with multiple audio servers" —
// network transparency means one bridge process can hold connections to
// every participant's workstation at once (§1.1).
//
// Three participants each run their own AudioFile server (their own
// workstation, their own sample clock). Each participant's microphone
// carries a distinctive tone. The bridge records a block from everyone,
// then plays to each participant the mix of the *other* participants —
// the N-way version of apass, with the same delay budget and the same
// explicit-time scheduling.
//
// The check at the end: every speaker hears the other two tones and not
// its own.
package main

import (
	"fmt"
	"log"
	"math"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/internal/dsp"
	"audiofile/internal/sampleconv"
	"audiofile/internal/vdev"
)

const (
	rate         = 8000
	blockSamples = 800  // 100 ms packetization
	delaySamples = 2400 // 300 ms end-to-end budget
	nBlocks      = 30   // 3 seconds of conference
)

type participant struct {
	name    string
	freq    float64
	srv     *aserver.Server
	conn    *af.Conn
	ac      *af.AC
	speaker *vdev.CaptureSink
	recT    af.ATime // next record time on this participant's clock
	playT   af.ATime // next play time on this participant's clock
}

func main() {
	freqs := map[string]float64{"ann": 500, "bob": 800, "carol": 1250}
	var people []*participant
	for name, f := range freqs {
		p := &participant{name: name, freq: f}
		p.speaker = &vdev.CaptureSink{Max: 1 << 20}
		mic := vdev.SineSource{Freq: f, Amp: 5000, Rate: rate, Enc: sampleconv.MU255, Ch: 1}
		srv, err := aserver.New(aserver.Options{
			Devices: []aserver.DeviceSpec{{Kind: "codec", Name: name, Source: mic, Sink: p.speaker}},
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		p.srv = srv
		p.conn, err = af.NewConn(srv.DialPipe())
		if err != nil {
			log.Fatal(err)
		}
		defer p.conn.Close()
		p.ac, err = p.conn.CreateAC(0, 0, af.ACAttributes{})
		if err != nil {
			log.Fatal(err)
		}
		now, err := p.ac.GetTime()
		if err != nil {
			log.Fatal(err)
		}
		p.recT = now
		p.playT = now.Add(delaySamples)
		people = append(people, p)
	}
	fmt.Printf("bridging %d participants across %d servers...\n", len(people), len(people))

	// The bridge loop. Each participant's device time is private — the
	// bridge never compares clocks, it only advances each one by the
	// block size and lets each server's buffering absorb the rest.
	blocks := make([][]byte, len(people))
	lin := make([][]int16, len(people))
	for i := range blocks {
		blocks[i] = make([]byte, blockSamples)
		lin[i] = make([]int16, blockSamples)
	}
	mix := make([]int16, blockSamples)
	out := make([]byte, blockSamples)
	for b := 0; b < nBlocks; b++ {
		// Collect a block from everyone (the first record paces the loop).
		for i, p := range people {
			if _, n, err := p.ac.RecordSamples(p.recT, blocks[i], true); err != nil || n != blockSamples {
				log.Fatalf("record %s: n=%d err=%v", p.name, n, err)
			}
			sampleconv.ToLin16(lin[i], blocks[i], sampleconv.MU255, blockSamples)
			p.recT = p.recT.Add(blockSamples)
		}
		// For each participant, mix everyone else and schedule it.
		for i, p := range people {
			for s := 0; s < blockSamples; s++ {
				sum := 0
				for j := range people {
					if j != i {
						sum += int(lin[j][s])
					}
				}
				mix[s] = sampleconv.Clamp16(sum)
			}
			sampleconv.FromLin16(out, sampleconv.MU255, mix, blockSamples)
			if _, err := p.ac.PlaySamples(p.playT, out); err != nil {
				log.Fatal(err)
			}
			p.playT = p.playT.Add(blockSamples)
		}
	}

	// Verify: each speaker heard the other two tones, not its own.
	ok := true
	for i, p := range people {
		heard, _ := p.speaker.Bytes()
		x := make([]float64, len(heard))
		for j, v := range heard {
			x[j] = float64(sampleconv.DecodeMuLaw(v))
		}
		fmt.Printf("%-6s hears:", p.name)
		for j, q := range people {
			g := dsp.Goertzel(x, q.freq, rate) / float64(len(x))
			level := 10 * math.Log10(g+1)
			present := level > 75 // real tones ~108 dB; leakage floor ~48 dB
			fmt.Printf("  %.0fHz %5.1fdB(%v)", q.freq, level, present)
			if (j == i) == present {
				ok = false
			}
		}
		fmt.Println()
	}
	if !ok {
		log.Fatal("conference routing wrong")
	}
	fmt.Println("ok")
}
