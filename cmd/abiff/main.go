// abiff is the audio analogue of the Berkeley biff program (§9.6): it
// watches a mailbox file and announces new mail through the AudioFile
// server. The original spoke the From and Subject lines through DECtalk;
// this one plays a distinctive two-tone chime (speech synthesis being a
// little out of scope for a reproduction).
//
//	abiff [-a server] [-d device] [-f mailbox] [-poll 2s] [-n count]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"audiofile/af"
	"audiofile/afutil"
	"audiofile/internal/cmdutil"
)

func main() {
	server := cmdutil.ServerFlag("AudioFile server")
	device := cmdutil.DeviceFlag(-1, "audio device")
	mbox := flag.String("f", "", "mailbox file to watch (default $MAIL)")
	poll := flag.Duration("poll", 2*time.Second, "poll interval")
	count := flag.Int("n", -1, "exit after this many notifications")
	flag.Parse()

	path := *mbox
	if path == "" {
		path = os.Getenv("MAIL")
	}
	if path == "" {
		cmdutil.Die("abiff: no mailbox: use -f or set $MAIL")
	}

	conn := cmdutil.OpenServer(*server)
	defer conn.Close()
	dev := cmdutil.PickDevice(conn, *device)
	rate := conn.Devices()[dev].PlaySampleFreq
	ac, err := conn.CreateAC(dev, 0, af.ACAttributes{})
	if err != nil {
		cmdutil.Die("abiff: %v", err)
	}

	// The chime: an upward pair of tone bursts.
	chime := make([]byte, rate/2)
	afutil.TonePair(523, -10, 659, -12, rate/100, rate, chime[:rate/4])
	afutil.TonePair(784, -10, 988, -12, rate/100, rate, chime[rate/4:])

	lastSize := int64(-1)
	if st, err := os.Stat(path); err == nil {
		lastSize = st.Size()
	}
	notified := 0
	for *count < 0 || notified < *count {
		time.Sleep(*poll)
		st, err := os.Stat(path)
		if err != nil {
			continue // mailbox may not exist yet
		}
		size := st.Size()
		if lastSize >= 0 && size > lastSize {
			now, err := ac.GetTime()
			if err != nil {
				cmdutil.Die("abiff: %v", err)
			}
			if _, err := ac.PlaySamples(now.Add(rate/10), chime); err != nil {
				cmdutil.Die("abiff: %v", err)
			}
			fmt.Printf("abiff: new mail in %s (%d bytes)\n", path, size-lastSize)
			notified++
		}
		lastSize = size
	}
}
