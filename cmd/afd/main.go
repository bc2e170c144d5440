// afd is the AudioFile server daemon. It builds the simulated device
// complement (telephone CODEC, local CODEC, stereo HiFi with mono views —
// the Alofi arrangement) and serves the AudioFile protocol on a Unix
// socket and/or TCP port.
//
//	afd [-n display] [-tcp] [-ac] [-devices spec,...] [-console]
//
// Because the telephone line is simulated, afd offers a small control
// console on standard input so a human (or script) can play the exchange:
//
//	ring            deliver a ring pulse
//	stopring        caller gives up
//	digits 555#     remote caller punches digits
//	exthook on|off  extension phone off/on hook
//	stats           print device statistics
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"audiofile/aserver"
	"audiofile/internal/cmdutil"
)

func main() {
	display := flag.Int("n", 0, "server number: Unix socket /tmp/.AFunix/AF<n>, TCP port 7000+<n>")
	tcp := flag.Bool("tcp", false, "also listen on TCP")
	ac := flag.Bool("ac", false, "enable host access control at startup")
	devices := flag.String("devices", "phone,codec:loopback,hifi",
		"comma-separated device specs: phone | codec[:loopback] | hifi[:rate] | lineserver:addr")
	console := flag.Bool("console", false, "read exchange-control commands from stdin")
	verbose := flag.Bool("verbose", false, "log server diagnostics")
	statsAddr := flag.String("stats", "", "serve the metrics snapshot as JSON at /stats on this address (e.g. localhost:7800); off by default")
	maxClients := flag.Int("max-clients", 0, "maximum simultaneous clients; the oldest idle client is shed to admit a new one (0 = unlimited)")
	clientQueueBytes := flag.Int("client-queue-bytes", 0, "per-client send-queue byte budget before slow-client eviction (0 = default 256KiB, negative = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "on SIGTERM/SIGINT, wait up to this long for play buffers to drain before closing")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); off by default")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file until shutdown")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			cmdutil.Die("afd: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			cmdutil.Die("afd: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the net/http/pprof handlers.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "afd: pprof listener: %v\n", err)
			}
		}()
	}

	specs, err := parseDevices(*devices)
	if err != nil {
		cmdutil.Die("afd: %v", err)
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "afd: "+format+"\n", args...)
		}
	}
	srv, err := aserver.New(aserver.Options{
		Vendor:           "audiofile-go afd",
		Devices:          specs,
		AccessControl:    *ac,
		Logf:             logf,
		MaxClients:       *maxClients,
		ClientQueueBytes: *clientQueueBytes,
	})
	if err != nil {
		cmdutil.Die("afd: %v", err)
	}
	defer srv.Close()

	if *statsAddr != "" {
		sl, err := srv.ListenStats(*statsAddr)
		if err != nil {
			cmdutil.Die("afd: stats listener: %v", err)
		}
		fmt.Fprintf(os.Stderr, "afd: stats on http://%s/stats\n", sl.Addr())
	}

	sockDir := "/tmp/.AFunix"
	if err := os.MkdirAll(sockDir, 0o777); err != nil {
		cmdutil.Die("afd: %v", err)
	}
	sockPath := filepath.Join(sockDir, fmt.Sprintf("AF%d", *display))
	os.Remove(sockPath) //nolint:errcheck — stale socket from a previous run
	if _, err := srv.Listen("unix", sockPath); err != nil {
		cmdutil.Die("afd: %v", err)
	}
	fmt.Fprintf(os.Stderr, "afd: listening on %s", sockPath)
	if *tcp {
		addr := fmt.Sprintf(":%d", 7000+*display)
		if _, err := srv.Listen("tcp", addr); err != nil {
			cmdutil.Die("afd: %v", err)
		}
		fmt.Fprintf(os.Stderr, " and tcp%s", addr)
	}
	fmt.Fprintln(os.Stderr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	if *console {
		go runConsole(srv)
	}
	<-sigCh
	// Graceful drain: stop accepting, let the play rings run out to the
	// device tail, notify remaining clients with a typed Drain error, then
	// close. A second signal during the drain aborts immediately.
	done := make(chan struct{})
	go func() {
		srv.Drain(*drainTimeout)
		close(done)
	}()
	select {
	case <-done:
	case <-sigCh:
	}
	os.Remove(sockPath) //nolint:errcheck
}

// parseDevices turns the -devices string into server specs.
func parseDevices(s string) ([]aserver.DeviceSpec, error) {
	var specs []aserver.DeviceSpec
	for _, part := range strings.Split(s, ",") {
		fields := strings.SplitN(strings.TrimSpace(part), ":", 2)
		kind := fields[0]
		arg := ""
		if len(fields) == 2 {
			arg = fields[1]
		}
		switch kind {
		case "phone":
			specs = append(specs, aserver.DeviceSpec{Kind: "phone", Name: "phone0"})
		case "codec":
			specs = append(specs, aserver.DeviceSpec{
				Kind: "codec", Name: fmt.Sprintf("codec%d", countKind(specs, "codec")),
				Loopback: arg == "loopback",
			})
		case "hifi":
			rate := 44100
			if arg != "" {
				if _, err := fmt.Sscanf(arg, "%d", &rate); err != nil {
					return nil, fmt.Errorf("bad hifi rate %q", arg)
				}
			}
			specs = append(specs, aserver.DeviceSpec{Kind: "hifi", Name: "hifi0", Rate: rate})
		case "lineserver":
			if arg == "" {
				return nil, fmt.Errorf("lineserver needs an address: lineserver:host:port")
			}
			specs = append(specs, aserver.DeviceSpec{Kind: "lineserver", Addr: arg})
		case "":
			continue
		default:
			return nil, fmt.Errorf("unknown device kind %q", kind)
		}
	}
	return specs, nil
}

func countKind(specs []aserver.DeviceSpec, kind string) int {
	n := 0
	for _, s := range specs {
		if s.Kind == kind {
			n++
		}
	}
	return n
}

// runConsole reads exchange commands from stdin and drives the simulated
// telephone line of the first phone device.
func runConsole(srv *aserver.Server) {
	var phoneDev = -1
	for i := 0; i < srv.NumDevices(); i++ {
		if srv.PhoneLine(i) != nil {
			phoneDev = i
			break
		}
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		line := srv.PhoneLine(phoneDev)
		switch fields[0] {
		case "ring":
			if line != nil {
				line.RingPulse()
			}
		case "stopring":
			if line != nil {
				line.StopRinging()
			}
		case "digits":
			if line != nil && len(fields) > 1 {
				line.RemoteDigits(fields[1])
			}
		case "exthook":
			if line != nil && len(fields) > 1 {
				line.SetExtensionHook(fields[1] == "on")
			}
		case "stats":
			for i := 0; i < srv.NumDevices(); i++ {
				if hw := srv.Hardware(i); hw != nil {
					played, silent, rec := hw.Stats()
					fmt.Printf("device %d (%s): played %d, silence %d, recorded %d frames\n",
						i, hw.Name(), played, silent, rec)
				}
			}
		case "quit":
			return
		default:
			fmt.Println("commands: ring stopring digits <d> exthook on|off stats quit")
		}
	}
}
