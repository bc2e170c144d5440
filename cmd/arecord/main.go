// arecord is the AudioFile record client (§8.2): it reads samples from
// the server and writes them to a file or standard output.
//
//	arecord [-a server] [-d device] [-l length] [-t time] \
//	        [-silentlevel dB] [-silenttime s] [-printpower] [-au|-wav] [file]
//
// Because the server is always listening, a negative -t records from the
// recent past: recording can start "before" arecord begins execution,
// which is why voice applications need no get-ready beep.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"audiofile/af"
	"audiofile/afutil"
	"audiofile/cmd/internal/cmdutil"
	"audiofile/internal/sampleconv"
	"audiofile/internal/sndfile"
)

func main() {
	server := cmdutil.ServerFlag("AudioFile server")
	device := cmdutil.DeviceFlag(-1, "audio device to record from (default: first non-telephone device)")
	length := flag.Float64("l", -1, "length of sound to record, in seconds (default: unbounded)")
	toffset := flag.Float64("t", 0.125, "seconds in the future to start recording (negative records the past)")
	silentLevel := flag.Float64("silentlevel", -60, "level in dBm below which sound is deemed silent")
	silentTime := flag.Float64("silenttime", 3.0, "seconds of silence that end the recording")
	useSilence := flag.Bool("s", false, "stop after -silenttime seconds below -silentlevel")
	printPower := flag.Bool("printpower", false, "print input power in dBm per block on stderr")
	asAU := flag.Bool("au", false, "write a Sun .au file instead of raw data")
	asWAV := flag.Bool("wav", false, "write a RIFF .wav file instead of raw data")
	flag.Parse()

	conn := cmdutil.OpenServer(*server)
	defer conn.Close()
	dev := cmdutil.PickDevice(conn, *device)
	d := conn.Devices()[dev]

	out := os.Stdout
	if flag.NArg() > 0 {
		f, err := os.Create(flag.Arg(0))
		if err != nil {
			cmdutil.Die("arecord: %v", err)
		}
		defer f.Close()
		out = f
	}
	w := bufio.NewWriter(out)
	defer w.Flush()

	ac, err := conn.CreateAC(dev, 0, af.ACAttributes{})
	if err != nil {
		cmdutil.Die("arecord: %v", err)
	}
	srate := d.RecSampleFreq
	ssize := d.RecBufType.BytesPerUnit() * d.RecNchannels

	nsamples := -1
	if *length >= 0 {
		nsamples = int(*length * float64(srate))
	}

	var collected []byte // only kept when writing a container format
	container := *asAU || *asWAV

	// Establish the initial time and schedule the first record per -t.
	t, err := ac.GetTime()
	if err != nil {
		cmdutil.Die("arecord: %v", err)
	}
	t = t.Add(int(*toffset * float64(srate)))

	bufFrames := srate / 8 // 125 ms blocks, 8 per second as in the paper
	buf := make([]byte, bufFrames*ssize)
	silentRun := 0.0
	for nsamples != 0 {
		nb := bufFrames
		if nsamples > 0 && nsamples < nb {
			nb = nsamples
		}
		_, got, err := ac.RecordSamples(t, buf[:nb*ssize], true)
		if err != nil {
			cmdutil.Die("arecord: %v", err)
		}
		t = t.Add(got / ssize)
		if nsamples > 0 {
			nsamples -= got / ssize
		}
		if container {
			collected = append(collected, buf[:got]...)
		} else {
			if _, err := w.Write(buf[:got]); err != nil {
				cmdutil.Die("arecord: write: %v", err)
			}
			// Keep the pipeline latency down, as the paper's fflush does.
			w.Flush() //nolint:errcheck
		}
		if *printPower || *useSilence {
			pow := blockPower(d.RecBufType, buf[:got])
			if *printPower {
				fmt.Fprintf(os.Stderr, "%.1f dBm\n", pow)
			}
			if *useSilence {
				if pow < *silentLevel {
					silentRun += float64(got/ssize) / float64(srate)
					if silentRun >= *silentTime {
						break
					}
				} else {
					silentRun = 0
				}
			}
		}
	}

	if container {
		snd := &sndfile.Sound{
			Info: sndfile.Info{
				Encoding: d.RecBufType,
				Rate:     srate,
				Channels: d.RecNchannels,
			},
			Data: collected,
		}
		var werr error
		if *asAU {
			werr = sndfile.WriteAU(w, snd)
		} else {
			werr = sndfile.WriteWAV(w, snd)
		}
		if werr != nil {
			cmdutil.Die("arecord: %v", werr)
		}
	}
}

// blockPower measures a block's power in dBm re the digital milliwatt,
// decoding it in the device's own encoding.
func blockPower(enc af.Encoding, block []byte) float64 {
	lin := make([]int16, len(block)/enc.BytesPerUnit())
	sampleconv.ToLin16(lin, block, enc, len(lin))
	return afutil.PowerLin16(lin)
}
