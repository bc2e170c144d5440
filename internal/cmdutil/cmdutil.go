// Package cmdutil holds the few helpers the AudioFile command-line
// programs share: for clients, the -a and -d flags, server connection with
// the standard name resolution and default device selection; for the
// daemons, the front door.
package cmdutil

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"audiofile/af"
)

// ServerFlag declares -a, the AudioFile server a client opens with
// OpenServer; empty means $AUDIOFILE or $DISPLAY.
func ServerFlag(usage string) *string { return flag.String("a", "", usage) }

// DeviceFlag declares -d, the device index a client hands PickDevice or
// PickPhoneDevice; negative means the default device.
func DeviceFlag(def int, usage string) *int { return flag.Int("d", def, usage) }

// OpenServer connects to the AudioFile server named on the command line
// (or via AUDIOFILE/DISPLAY), exiting with a message on failure, as the
// C clients do via AoD.
func OpenServer(name string) *af.Conn {
	c, err := af.Open(name)
	if err != nil {
		Die("%s: can't open connection: %v", os.Args[0], err)
	}
	return c
}

// PickDevice returns the requested device index, or the first device not
// connected to the telephone when dev is negative — usually the local
// loudspeaker.
func PickDevice(c *af.Conn, dev int) int {
	if dev >= 0 {
		if dev >= len(c.Devices()) {
			Die("%s: no device %d", os.Args[0], dev)
		}
		return dev
	}
	d := c.FindDefaultDevice()
	if d < 0 {
		Die("%s: no non-telephone device", os.Args[0])
	}
	return d
}

// PickPhoneDevice returns the requested device, or the first telephone
// device when dev is negative.
func PickPhoneDevice(c *af.Conn, dev int) int {
	if dev >= 0 {
		return dev
	}
	d := c.FindPhoneDevice()
	if d < 0 {
		Die("%s: no telephone device", os.Args[0])
	}
	return d
}

// Die prints a formatted message and exits.
func Die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// daemon is what Front serves: afd's server or arouter's router.
type daemon interface {
	Listen(network, addr string) (net.Listener, error)
	ListenStats(addr string) (net.Listener, error)
}

// Front runs a daemon's front door under name. It serves the stats
// endpoint when statsAddr is set, listens on server number display's Unix
// socket (an earlier run's stale socket removed first) and, with tcp, on
// port af.BasePort+display, reporting each on stderr, the listening line
// ending in trailer. It returns after SIGINT or SIGTERM and shutdown, if
// set, which a second signal on signals may cut short; the socket goes
// with it.
func Front(name string, d daemon, display int, tcp bool, statsAddr, trailer string, shutdown func(signals <-chan os.Signal)) {
	// A signal is caught from before the first listener, so one sent as
	// soon as a line reports it is never the default action's kill, which
	// would leave the socket behind.
	signals := make(chan os.Signal, 1)
	signal.Notify(signals, os.Interrupt, syscall.SIGTERM)
	if statsAddr != "" {
		sl, err := d.ListenStats(statsAddr)
		if err != nil {
			Die("%s: stats listener: %v", name, err)
		}
		fmt.Fprintf(os.Stderr, "%s: stats on http://%s/stats\n", name, sl.Addr())
	}

	sock := af.UnixSocketPath(display)
	if err := os.MkdirAll(filepath.Dir(sock), 0o777); err != nil {
		Die("%s: %v", name, err)
	}
	os.Remove(sock) //nolint:errcheck — stale socket from a previous run
	if _, err := d.Listen("unix", sock); err != nil {
		Die("%s: %v", name, err)
	}
	defer os.Remove(sock) //nolint:errcheck
	fmt.Fprintf(os.Stderr, "%s: listening on %s", name, sock)
	if tcp {
		addr := fmt.Sprintf(":%d", af.BasePort+display)
		if _, err := d.Listen("tcp", addr); err != nil {
			Die("%s: %v", name, err)
		}
		fmt.Fprintf(os.Stderr, " and tcp%s", addr)
	}
	fmt.Fprintf(os.Stderr, "%s\n", trailer)
	<-signals
	if shutdown != nil {
		shutdown(signals)
	}
}
