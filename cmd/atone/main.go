// atone is a stdio-based µ-law signal generator (§9.6): it writes a sine
// wave of a specified frequency and power level to standard output.
// "atone | aplay" is a useful technique for setting playback levels.
//
//	atone [-f freq] [-p dBm] [-l seconds] [-r rate] [-f2 freq2] [-p2 dBm2]
package main

import (
	"bufio"
	"flag"
	"math"
	"os"

	"audiofile/afutil"
	"audiofile/cmd/internal/cmdutil"
	"audiofile/internal/dsp"
	"audiofile/internal/sampleconv"
)

func main() {
	freq := flag.Float64("f", 1000, "frequency in Hz")
	power := flag.Float64("p", 0, "power level in dBm re the digital milliwatt")
	length := flag.Float64("l", 1.0, "duration in seconds (0 = forever)")
	rate := flag.Int("r", 8000, "sampling rate in Hz")
	f2 := flag.Float64("f2", 0, "second tone frequency (0 = single tone)")
	p2 := flag.Float64("p2", 0, "second tone power in dBm")
	flag.Parse()

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	blockFrames := *rate / 8
	total := -1
	if *length > 0 {
		total = int(*length * float64(*rate))
	}
	// Phase accumulators persist across blocks so the stream is
	// continuous at block boundaries (the AFSingleTone contract).
	var phase1, phase2 float64
	amp1 := dsp.AmplitudeForDBm(*power)
	amp2 := dsp.AmplitudeForDBm(*p2)
	t1 := make([]float64, blockFrames)
	t2 := make([]float64, blockFrames)
	buf := make([]byte, blockFrames)
	for total != 0 {
		n := blockFrames
		if total > 0 && total < n {
			n = total
		}
		phase1 = afutil.SingleTone(*freq, amp1, *rate, t1[:n], phase1)
		if *f2 > 0 {
			phase2 = afutil.SingleTone(*f2, amp2, *rate, t2[:n], phase2)
		}
		for i := 0; i < n; i++ {
			v := t1[i]
			if *f2 > 0 {
				v += t2[i]
			}
			buf[i] = sampleconv.EncodeMuLaw(sampleconv.Clamp16(int(math.Round(v))))
		}
		if _, err := out.Write(buf[:n]); err != nil {
			cmdutil.Die("atone: %v", err)
		}
		if total > 0 {
			total -= n
		}
	}
}
