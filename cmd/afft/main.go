// afft is a real-time spectrogram displayer (§9.5) rendered as a text
// waterfall: it reads µ-law audio from a file, standard input, or an
// AudioFile server in real time, runs a windowed Fourier transform, and
// prints one line of spectrum per transform block.
//
//	afft [-a server] [-d device] [-file f] [-sine] [-r rate] [-length n] \
//	     [-stride n] [-window hamming|hanning|triangular|none] [-log] \
//	     [-blocks n] [-width n]
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"audiofile/af"
	"audiofile/cmd/internal/cmdutil"
	"audiofile/internal/dsp"
	"audiofile/internal/sampleconv"
)

func main() {
	server := cmdutil.ServerFlag("AudioFile server")
	device := cmdutil.DeviceFlag(-1, "device to record from")
	file := flag.String("file", "", "µ-law file to analyze (\"-\" for stdin)")
	sine := flag.Bool("sine", false, "analyze a built-in swept sine (demo mode)")
	length := flag.Int("length", 256, "FFT length: 64..512, power of two")
	stride := flag.Int("stride", 0, "samples between transforms (default: length)")
	windowName := flag.String("window", "hamming", "window: hamming|hanning|triangular|none")
	logScale := flag.Bool("log", true, "logarithmic amplitude scale")
	rate := flag.Int("r", 8000, "sampling rate of the -sine sweep")
	blocks := flag.Int("blocks", 0, "stop after this many transform blocks (0 = forever/EOF)")
	width := flag.Int("width", 64, "display width in columns")
	flag.Parse()

	if *length < 64 || *length > 512 || *length&(*length-1) != 0 {
		cmdutil.Die("afft: -length must be a power of two in 64..512")
	}
	if *stride <= 0 {
		*stride = *length
	}
	var win dsp.Window
	switch *windowName {
	case "hamming":
		win = dsp.Hamming
	case "hanning":
		win = dsp.Hanning
	case "triangular":
		win = dsp.Triangular
	case "none":
		win = dsp.Rectangular
	default:
		cmdutil.Die("afft: unknown window %q", *windowName)
	}

	var src sampleSource
	switch {
	case *sine:
		src = &sweepSource{rate: float64(*rate)}
	case *file == "-":
		src = &readerSource{r: os.Stdin}
	case *file != "":
		f, err := os.Open(*file)
		if err != nil {
			cmdutil.Die("afft: %v", err)
		}
		defer f.Close()
		src = &readerSource{r: f, loop: f}
	default:
		conn := cmdutil.OpenServer(*server)
		defer conn.Close()
		dev := cmdutil.PickDevice(conn, *device)
		d := conn.Devices()[dev]
		if d.RecBufType != af.MU255 {
			cmdutil.Die("afft: device %s is not µ-law", d.Name)
		}
		ac, err := conn.CreateAC(dev, 0, af.ACAttributes{})
		if err != nil {
			cmdutil.Die("afft: %v", err)
		}
		now, err := ac.GetTime()
		if err != nil {
			cmdutil.Die("afft: %v", err)
		}
		src = &serverSource{ac: ac, t: now}
	}

	run(src, win, *length, *stride, *logScale, *width, *blocks)
}

// run is the afft core: window, transform, render.
func run(src sampleSource, win dsp.Window, length, stride int, logScale bool, width, maxBlocks int) {
	ring := make([]float64, 0, length+stride)
	block := 0
	ramp := " .:-=+*#%@"
	for maxBlocks == 0 || block < maxBlocks {
		need := length + stride - len(ring)
		if need > stride {
			need = stride
		}
		if len(ring) < length {
			need = length - len(ring)
		}
		chunk, ok := src.next(need)
		if !ok {
			return
		}
		ring = append(ring, chunk...)
		if len(ring) < length {
			continue
		}
		x := make([]float64, length)
		copy(x, ring[:length])
		ring = append(ring[:0], ring[stride:]...)
		win.Apply(x)
		ps := dsp.PowerSpectrum(x)
		fmt.Println(renderLine(ps[1:], width, logScale, ramp))
		block++
	}
}

// renderLine folds the power spectrum into width buckets and maps each to
// an intensity character.
func renderLine(ps []float64, width int, logScale bool, ramp string) string {
	var sb strings.Builder
	perBucket := float64(len(ps)) / float64(width)
	var peak float64 = 1
	vals := make([]float64, width)
	for i := 0; i < width; i++ {
		lo := int(float64(i) * perBucket)
		hi := int(float64(i+1) * perBucket)
		if hi <= lo {
			hi = lo + 1
		}
		var v float64
		for _, p := range ps[lo:min(hi, len(ps))] {
			if p > v {
				v = p
			}
		}
		if logScale {
			v = math.Log10(1 + v)
		}
		vals[i] = v
		if v > peak {
			peak = v
		}
	}
	for _, v := range vals {
		idx := int(v / peak * float64(len(ramp)-1))
		sb.WriteByte(ramp[idx])
	}
	return sb.String()
}

// sampleSource produces linear samples for analysis.
type sampleSource interface {
	next(n int) ([]float64, bool)
}

// readerSource decodes µ-law from a reader; with loop set it rewinds at
// EOF and repeats, as afft does for files.
type readerSource struct {
	r    io.Reader
	loop io.Seeker
}

func (s *readerSource) next(n int) ([]float64, bool) {
	buf := make([]byte, n)
	got, err := io.ReadFull(s.r, buf)
	if got == 0 {
		if s.loop != nil && err == io.EOF {
			if _, err := s.loop.Seek(0, io.SeekStart); err != nil {
				return nil, false
			}
			return s.next(n)
		}
		return nil, false
	}
	out := make([]float64, got)
	for i := 0; i < got; i++ {
		out[i] = float64(sampleconv.DecodeMuLaw(buf[i]))
	}
	return out, true
}

// sweepSource is the built-in demo: a sine sweeping up and down the band.
type sweepSource struct {
	rate  float64
	phase float64
	freq  float64
	dir   float64
}

func (s *sweepSource) next(n int) ([]float64, bool) {
	if s.freq == 0 {
		s.freq, s.dir = 200, 1
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = 8000 * math.Sin(2*math.Pi*s.phase)
		s.phase += s.freq / s.rate
		if s.phase >= 1 {
			s.phase -= 1
		}
		s.freq += s.dir * 2
		if s.freq > s.rate/2-400 || s.freq < 200 {
			s.dir = -s.dir
		}
	}
	return out, true
}

// serverSource records from an AudioFile device in real time.
type serverSource struct {
	ac *af.AC
	t  af.ATime
}

func (s *serverSource) next(n int) ([]float64, bool) {
	buf := make([]byte, n)
	_, got, err := s.ac.RecordSamples(s.t, buf, true)
	if err != nil || got == 0 {
		return nil, false
	}
	s.t = s.t.Add(got)
	out := make([]float64, got)
	for i := 0; i < got; i++ {
		out[i] = float64(sampleconv.DecodeMuLaw(buf[i]))
	}
	return out, true
}
