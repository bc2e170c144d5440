// Package cmdutil holds the few helpers the AudioFile command-line
// clients share: the -a and -d flags, server connection with the standard
// name resolution and default device selection.
package cmdutil

import (
	"flag"
	"fmt"
	"os"

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
		fmt.Fprintf(os.Stderr, "%s: can't open connection: %v\n", os.Args[0], err)
		os.Exit(1)
	}
	return c
}

// PickDevice returns the requested device index, or the first device not
// connected to the telephone when dev is negative — usually the local
// loudspeaker.
func PickDevice(c *af.Conn, dev int) int {
	if dev >= 0 {
		if dev >= len(c.Devices()) {
			fmt.Fprintf(os.Stderr, "%s: no device %d\n", os.Args[0], dev)
			os.Exit(1)
		}
		return dev
	}
	d := c.FindDefaultDevice()
	if d < 0 {
		fmt.Fprintf(os.Stderr, "%s: no non-telephone device\n", os.Args[0])
		os.Exit(1)
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
		fmt.Fprintf(os.Stderr, "%s: no telephone device\n", os.Args[0])
		os.Exit(1)
	}
	return d
}

// Die prints a formatted message and exits.
func Die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
