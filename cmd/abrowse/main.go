// abrowse is a sound file browser (§9.6's abrowse/xplay, sans toolkit):
// it lists a directory of sound files with their formats and durations,
// and plays selections through the AudioFile server.
//
//	abrowse [-a server] [-d device] [-list] [dir]
//
// Without -list it reads selections (file numbers) from standard input
// and plays each, the terminal equivalent of the Tk browser.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"audiofile/af"
	"audiofile/internal/cmdutil"
	"audiofile/internal/sndfile"
)

type entry struct {
	name string
	snd  *sndfile.Sound
}

func main() {
	server := cmdutil.ServerFlag("AudioFile server")
	device := cmdutil.DeviceFlag(-1, "audio device")
	listOnly := flag.Bool("list", false, "list the directory and exit")
	flag.Parse()
	dir := "."
	if flag.NArg() > 0 {
		dir = flag.Arg(0)
	}

	entries := scan(dir)
	if len(entries) == 0 {
		cmdutil.Die("abrowse: no sound files in %s", dir)
	}
	for i, e := range entries {
		fmt.Printf("%3d  %-30s %6s %6d Hz %dch %6.2fs\n",
			i, e.name, encName(e.snd.Encoding), e.snd.Rate, e.snd.Channels, e.snd.Duration())
	}
	if *listOnly {
		return
	}

	conn := cmdutil.OpenServer(*server)
	defer conn.Close()
	dev := cmdutil.PickDevice(conn, *device)
	d := conn.Devices()[dev]

	sc := bufio.NewScanner(os.Stdin)
	fmt.Println("enter a number to play, q to quit:")
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "q" || text == "quit" {
			return
		}
		i, err := strconv.Atoi(text)
		if err != nil || i < 0 || i >= len(entries) {
			fmt.Println("?")
			continue
		}
		if err := play(conn, dev, d, entries[i].snd); err != nil {
			fmt.Printf("abrowse: %v\n", err)
		}
	}
}

// scan reads the directory's recognizable sound files.
func scan(dir string) []entry {
	des, err := os.ReadDir(dir)
	if err != nil {
		cmdutil.Die("abrowse: %v", err)
	}
	var out []entry
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		path := filepath.Join(dir, de.Name())
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		snd, err := sndfile.Read(f)
		f.Close()
		if err != nil {
			continue // raw or unrecognized
		}
		out = append(out, entry{name: de.Name(), snd: snd})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func encName(e interface{ String() string }) string { return e.String() }

// play sends a decoded sound to the server, checking formats.
func play(conn *af.Conn, dev int, d af.Device, snd *sndfile.Sound) error {
	if int(snd.Encoding) != int(d.PlayBufType) || snd.Channels != d.PlayNchannels {
		return fmt.Errorf("file is %v/%dch but device is %v/%dch",
			snd.Encoding, snd.Channels, d.PlayBufType, d.PlayNchannels)
	}
	ac, err := conn.CreateAC(dev, 0, af.ACAttributes{})
	if err != nil {
		return err
	}
	defer ac.Free() //nolint:errcheck
	now, err := ac.GetTime()
	if err != nil {
		return err
	}
	end := now.Add(d.PlaySampleFreq/10 + snd.Frames())
	if _, err := ac.PlaySamples(now.Add(d.PlaySampleFreq/10), snd.Data); err != nil {
		return err
	}
	// Wait for it to finish, so selections play one after another.
	for {
		cur, err := ac.GetTime()
		if err != nil {
			return err
		}
		if !af.TimeBefore(cur, end) {
			return nil
		}
		time.Sleep(time.Duration(af.TimeSub(end, cur)) * time.Second /
			time.Duration(d.PlaySampleFreq) / 2)
	}
}
