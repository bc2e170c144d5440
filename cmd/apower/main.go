// apower is a stdio-based signal power meter (§9.6): it reads µ-law
// samples from standard input and prints the power of each block in dBm
// relative to the CCITT digital milliwatt (or, with -clip, relative to a
// sine 3.16 dB below the digital clipping level).
//
//	arecord | apower
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"audiofile/afutil"
	"audiofile/cmd/internal/cmdutil"
)

func main() {
	rate := flag.Int("r", 8000, "sampling rate (sets the block size)")
	clip := flag.Bool("clip", false, "report dB relative to 3.16 dB below clipping instead of dBm")
	flag.Parse()

	block := *rate / 8 // 8 blocks per second, as arecord -printpower
	buf := make([]byte, block)
	for {
		n, err := io.ReadFull(os.Stdin, buf)
		if n > 0 {
			p := afutil.PowerMu(buf[:n])
			if *clip {
				p -= 3.16
			}
			fmt.Printf("%.1f\n", p)
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return
		}
		if err != nil {
			cmdutil.Die("apower: %v", err)
		}
	}
}
