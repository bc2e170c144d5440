// apass records from a device on one AudioFile server and, after a small
// controlled delay, plays back on a device of another (§8.3). It is not a
// teleconferencing application, but it solves teleconferencing's
// fundamental problems: communicating with multiple audio servers,
// managing end-to-end delay, and managing multiple clock domains.
//
//	apass [-ia server] [-oa server] [-id dev] [-od dev] [-delay s] \
//	      [-aj s] [-buffering s] [-gain dB] [-log] [-n blocks]
//
// The end-to-end delay is packetization + transport + anti-jitter. apass
// tracks the drift between the transmit and receive sample clocks by
// watching the receiver-side slack, and resynchronizes (with an audible
// blip) when it leaves the ±aj tolerance band.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"audiofile/af"
	"audiofile/cmd/internal/cmdutil"
)

func main() {
	inServer := flag.String("ia", "", "server to record from (default $AUDIOFILE)")
	outServer := flag.String("oa", "", "server to play to (default $AUDIOFILE)")
	inDev := flag.Int("id", -1, "input device (default: first non-telephone)")
	outDev := flag.Int("od", -1, "output device (default: first non-telephone)")
	delay := flag.Float64("delay", 0.3, "record-to-playback delay in seconds (min buffering+aj, max 3.0)")
	aj := flag.Float64("aj", 0.1, "anti-jitter tolerance for clock drift, in seconds (0..1)")
	buffering := flag.Float64("buffering", 0.2, "per-operation block size in seconds (0.1..0.5)")
	gain := flag.Int("gain", 0, "playback gain in dB (-30..30)")
	logFlag := flag.Bool("log", false, "log resynchronizations on standard output")
	blocks := flag.Int("n", -1, "number of blocks to pass before exiting (default: forever)")
	paramFile := flag.String("f", "", "re-read delay/buffering/aj/gain from this file on SIGUSR1")
	flag.Parse()

	if *buffering < 0.1 {
		*buffering = 0.1
	}
	if *buffering > 0.5 {
		*buffering = 0.5
	}
	if *aj < 0 {
		*aj = 0
	}
	if *aj > 1 {
		*aj = 1
	}
	if *delay < *buffering+*aj {
		*delay = *buffering + *aj
	}
	if *delay > 3.0 {
		*delay = 3.0
	}

	faud := cmdutil.OpenServer(*inServer)
	defer faud.Close()
	taud := faud
	if *outServer != "" && *outServer != *inServer {
		taud = cmdutil.OpenServer(*outServer)
		defer taud.Close()
	}

	fdev := cmdutil.PickDevice(faud, *inDev)
	tdev := cmdutil.PickDevice(taud, *outDev)

	params := Params{Delay: *delay, AJ: *aj, Buffering: *buffering, Gain: *gain, Blocks: *blocks}
	if *logFlag {
		params.Logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	}
	if *paramFile != "" {
		// §8.3.1: another process (a Tk panel, EMACS keybindings) can
		// retune a running apass by rewriting the file and sending
		// SIGUSR1 — a multi-process way to act multi-threaded.
		reload := make(chan Update, 1)
		params.Reload = reload
		sigCh := make(chan os.Signal, 1)
		signal.Notify(sigCh, syscall.SIGUSR1)
		go func() {
			for range sigCh {
				if u, err := ReadParamFile(*paramFile); err == nil {
					select {
					case reload <- u:
					default:
					}
				} else {
					fmt.Fprintf(os.Stderr, "apass: %v\n", err)
				}
			}
		}()
	}
	n, err := Pass(faud, taud, fdev, tdev, params)
	if err != nil {
		cmdutil.Die("apass: %v", err)
	}
	if params.Logf != nil {
		params.Logf("apass: %d blocks passed", n)
	}
}

// Params are the knobs of the apass inner loop.
type Params struct {
	Delay     float64              // end-to-end delay target in seconds
	AJ        float64              // anti-jitter tolerance in seconds
	Buffering float64              // block size in seconds
	Gain      int                  // playback gain in dB
	Blocks    int                  // block count, or -1 for forever
	Logf      func(string, ...any) // resync and reload log; nil is quiet

	// Reload, when non-nil, delivers parameter updates applied between
	// blocks (the -f / SIGUSR1 mechanism).
	Reload <-chan Update

	// Resyncs is incremented for every clock resynchronization (visible
	// to tests).
	Resyncs int
}

// Update is a runtime parameter change for a running Pass loop. Nil
// fields leave the value alone.
type Update struct {
	Delay     *float64
	AJ        *float64
	Buffering *float64
	Gain      *int
}

// ReadParamFile parses the apass parameter file: one "keyword value" pair
// per line, keywords delay, buffering, aj, and gain.
func ReadParamFile(path string) (Update, error) {
	f, err := os.Open(path)
	if err != nil {
		return Update{}, err
	}
	defer f.Close()
	var u Update
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return Update{}, fmt.Errorf("bad value %q for %s", fields[1], fields[0])
		}
		switch fields[0] {
		case "delay":
			u.Delay = &v
		case "buffering":
			u.Buffering = &v
		case "aj":
			u.AJ = &v
		case "gain":
			g := int(v)
			u.Gain = &g
		}
	}
	return u, sc.Err()
}

// sliphist is the circular history of recent delay observations (§8.3.2).
const sliphist = 4

// Pass runs the apass inner loop between two connections. It returns the
// number of blocks passed.
func Pass(faud, taud *af.Conn, fdev, tdev int, p Params) (int, error) {
	fd := faud.Devices()[fdev]
	td := taud.Devices()[tdev]
	if fd.RecBufType != td.PlayBufType || fd.RecNchannels != td.PlayNchannels {
		return 0, fmt.Errorf("device formats differ (%v/%d vs %v/%d)",
			fd.RecBufType, fd.RecNchannels, td.PlayBufType, td.PlayNchannels)
	}
	fsrate := fd.RecSampleFreq
	fssize := fd.RecBufType.BytesPerUnit() * fd.RecNchannels

	fac, err := faud.CreateAC(fdev, af.ACRecordGain, af.ACAttributes{})
	if err != nil {
		return 0, err
	}
	tac, err := taud.CreateAC(tdev, af.ACPlayGain, af.ACAttributes{PlayGain: p.Gain})
	if err != nil {
		return 0, err
	}

	delayInSamples := int(p.Delay * float64(fsrate))
	ajSamples := int(p.AJ * float64(fsrate))
	delayLower := delayInSamples - ajSamples
	delayUpper := delayInSamples + ajSamples
	samplesBuf := int(p.Buffering * float64(fsrate))
	buf := make([]byte, samplesBuf*fssize)

	ft, err := fac.GetTime()
	if err != nil {
		return 0, err
	}
	tt0, err := tac.GetTime()
	if err != nil {
		return 0, err
	}
	tt := tt0.Add(delayInSamples)

	var hist [sliphist]int
	for i := range hist {
		hist[i] = delayInSamples // seed so startup does not look like drift
	}
	next := 0
	passed := 0
	for p.Blocks < 0 || passed < p.Blocks {
		// Apply any pending runtime parameter update between blocks.
		if p.Reload != nil {
			select {
			case u := <-p.Reload:
				if u.Delay != nil {
					delayInSamples = int(*u.Delay * float64(fsrate))
				}
				if u.AJ != nil {
					ajSamples = int(*u.AJ * float64(fsrate))
				}
				delayLower = delayInSamples - ajSamples
				delayUpper = delayInSamples + ajSamples
				if u.Buffering != nil {
					samplesBuf = int(*u.Buffering * float64(fsrate))
					buf = make([]byte, samplesBuf*fssize)
				}
				if u.Gain != nil {
					if err := tac.ChangeAttributes(af.ACPlayGain,
						af.ACAttributes{PlayGain: *u.Gain}); err != nil {
						return passed, err
					}
				}
				// Changed targets mean the old slip history is stale.
				tt = tt0 // recomputed below from the receiver clock
				if now, err := tac.GetTime(); err == nil {
					tt = now.Add(delayInSamples)
				}
				for i := range hist {
					hist[i] = delayInSamples
				}
				if p.Logf != nil {
					p.Logf("apass: parameters updated (delay %d samples, aj %d)", delayInSamples, ajSamples)
				}
			default:
			}
		}
		// Record a block from the source server; its pacing is the flow
		// control of the whole loop.
		_, n, err := fac.RecordSamples(ft, buf, true)
		if err != nil {
			return passed, err
		}
		if n < len(buf) {
			return passed, fmt.Errorf("short record (%d of %d bytes)", n, len(buf))
		}
		// Play it on the sink server, scheduled delay samples ahead.
		tactt, err := tac.PlaySamples(tt, buf)
		if err != nil {
			return passed, err
		}
		// tt-tactt estimates the current receiver-side slack; average the
		// last few and resynchronize if drift leaves the tolerance band.
		hist[next] = int(af.TimeSub(tt, tactt))
		next = (next + 1) % sliphist
		slip := 0
		for _, v := range hist {
			slip += v
		}
		slip /= sliphist
		if passed >= sliphist && (slip < delayLower || slip >= delayUpper) {
			tt = tactt.Add(delayInSamples)
			p.Resyncs++
			// Restart the average: pre-resync observations would otherwise
			// keep the mean out of band and trigger spurious resyncs.
			for i := range hist {
				hist[i] = delayInSamples
			}
			if p.Logf != nil {
				p.Logf("apass: resync (slip %d samples, want %d..%d)", slip, delayLower, delayUpper)
			}
		}
		ft = ft.Add(samplesBuf)
		tt = tt.Add(samplesBuf)
		passed++
	}
	return passed, nil
}
