// aplay is the primary AudioFile play client (§8.1): it reads digital
// audio from a file or standard input and sends it to the server for
// playback at precisely scheduled device times.
//
//	aplay [-a server] [-d device] [-t time] [-g gain] [-f] [-b|-e little] [file]
//
// Raw data is passed to the server untouched — aplay needs no
// modification to work with any fixed-size encoding or channel count; the
// user must pick a device whose format matches. Self-describing .au and
// .wav files are decoded and checked against the device (the extension
// the paper calls appropriate).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"audiofile/af"
	"audiofile/internal/cmdutil"
	"audiofile/internal/sndfile"
)

func main() {
	server := cmdutil.ServerFlag("AudioFile server (default $AUDIOFILE or $DISPLAY)")
	device := cmdutil.DeviceFlag(-1, "audio device to play through (default: first non-telephone device)")
	toffset := flag.Float64("t", 0.1, "seconds in the future to start playing (negative discards)")
	gain := flag.Int("g", 0, "play gain in dB, applied before mixing")
	flush := flag.Bool("f", false, "wait until the last sound has played before exiting")
	bigEnd := flag.Bool("b", false, "sample data in the file is big-endian")
	flag.Parse()

	conn := cmdutil.OpenServer(*server)
	defer conn.Close()
	dev := cmdutil.PickDevice(conn, *device)
	d := conn.Devices()[dev]

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			cmdutil.Die("aplay: %v", err)
		}
		defer f.Close()
		in = f
	}

	attrs := af.ACAttributes{PlayGain: *gain, BigEndian: *bigEnd}
	mask := uint32(af.ACPlayGain | af.ACEndian)

	var reader io.Reader = in
	// Sniff self-describing formats when reading from a file.
	if flag.NArg() > 0 {
		if snd, err := sndfile.Read(in); err == nil {
			if int(snd.Encoding) != int(d.PlayBufType) || snd.Channels != d.PlayNchannels {
				cmdutil.Die("aplay: file is %v/%dch but device %s is %v/%dch",
					snd.Encoding, snd.Channels, d.Name, d.PlayBufType, d.PlayNchannels)
			}
			if snd.Rate != d.PlaySampleFreq {
				fmt.Fprintf(os.Stderr, "aplay: warning: file rate %d != device rate %d\n",
					snd.Rate, d.PlaySampleFreq)
			}
			playBytes(conn, dev, mask, attrs, *toffset, *flush, d, &sliceReader{snd.Data})
			return
		}
		// Raw file: rewind and stream as-is.
		if _, err := in.Seek(0, io.SeekStart); err != nil {
			cmdutil.Die("aplay: %v", err)
		}
		reader = in
	}
	playBytes(conn, dev, mask, attrs, *toffset, *flush, d, reader)
}

// playBytes is the aplay inner loop (§8.1.2): establish the current
// device time, schedule the first block a little in the future, then
// schedule each successive block directly on the heels of the previous
// one so playback is continuous. Flow control is the server's: once its
// buffers hold about four seconds, PlaySamples blocks.
func playBytes(conn *af.Conn, dev int, mask uint32, attrs af.ACAttributes,
	toffset float64, flush bool, d af.Device, in io.Reader) {
	ac, err := conn.CreateAC(dev, mask, attrs)
	if err != nil {
		cmdutil.Die("aplay: %v", err)
	}
	srate := d.PlaySampleFreq
	ssize := int(d.PlayBufType.BytesPerUnit()) * d.PlayNchannels

	const bufFrames = 4000
	buf := make([]byte, bufFrames*ssize)

	// Pre-read the first buffer-full so the file-read latency does not
	// fall between GetTime and the first PlaySamples.
	n, err := io.ReadFull(in, buf)
	if n == 0 {
		if err != nil && err != io.EOF {
			cmdutil.Die("aplay: read: %v", err)
		}
		return
	}

	// Control-C must halt playback "on a dime": without special handling
	// the buffered audio in the server would keep playing for seconds
	// after exit, so the handler erases the future audio with preemptive
	// silence (§8.1.2).
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt)

	t, err := ac.GetTime()
	if err != nil {
		cmdutil.Die("aplay: %v", err)
	}
	start := t.Add(int(toffset * float64(srate)))
	tp := start
	nact := t
	interrupted := false
	for {
		n -= n % ssize
		if n > 0 {
			nact, err = ac.PlaySamples(tp, buf[:n])
			if err != nil {
				cmdutil.Die("aplay: %v", err)
			}
			tp = tp.Add(n / ssize)
		}
		select {
		case <-sigCh:
			interrupted = true
		default:
		}
		if interrupted {
			break
		}
		n, err = io.ReadFull(in, buf)
		if n == 0 {
			break
		}
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			cmdutil.Die("aplay: read: %v", err)
		}
	}
	if interrupted {
		// Erase the audio still buffered in the server by writing
		// preemptive silence from "now" (nact) through tp.
		for i := range buf {
			buf[i] = 0
		}
		afSilence(d.PlayBufType, buf)
		if err := ac.ChangeAttributes(af.ACPreemption, af.ACAttributes{Preempt: true}); err == nil {
			for af.TimeBefore(nact, tp) {
				n := int(af.TimeSub(tp, nact)) * ssize
				if n > len(buf) {
					n = len(buf)
				}
				act, err := ac.PlaySamples(nact, buf[:n])
				if err != nil {
					break
				}
				nact = nact.Add(n / ssize)
				_ = act
			}
		}
		os.Exit(130)
	}
	if flush {
		// Wait until the buffered audio has all played out.
		for {
			now, err := ac.GetTime()
			if err != nil {
				cmdutil.Die("aplay: %v", err)
			}
			if !af.TimeBefore(now, tp) {
				break
			}
			remain := af.TimeSub(tp, now)
			time.Sleep(time.Duration(remain) * time.Second / time.Duration(srate) / 2)
		}
	}
}

type sliceReader struct{ data []byte }

func (s *sliceReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.data)
	s.data = s.data[n:]
	return n, nil
}

// afSilence fills buf with silence for the encoding (µ-law 0xff,
// otherwise zeros).
func afSilence(e af.Encoding, buf []byte) {
	b := byte(0)
	switch e {
	case af.MU255:
		b = 0xFF
	case af.ALAW:
		b = 0xD5
	}
	for i := range buf {
		buf[i] = b
	}
}
