// ahs provides telephone hookswitch control (§8.4): "ahs off" takes the
// telephone off hook, answering or beginning a call; "ahs on" places it
// back on hook, terminating the call.
//
//	ahs [-a server] [-d device] on|off|query|flash
package main

import (
	"flag"
	"fmt"

	"audiofile/internal/cmdutil"
)

func main() {
	server := cmdutil.ServerFlag("AudioFile server")
	device := cmdutil.DeviceFlag(-1, "telephone device (default: first phone device)")
	flashMs := flag.Int("ms", 0, "flash duration in milliseconds (flash only; 0 = server default)")
	flag.Parse()
	if flag.NArg() != 1 {
		cmdutil.Die("usage: ahs [-a server] [-d device] on|off|query|flash")
	}

	conn := cmdutil.OpenServer(*server)
	defer conn.Close()
	dev := cmdutil.PickPhoneDevice(conn, *device)

	switch flag.Arg(0) {
	case "on": // on hook: hang up
		if err := conn.HookSwitch(dev, false); err != nil {
			cmdutil.Die("ahs: %v", err)
		}
	case "off": // off hook: answer or originate
		if err := conn.HookSwitch(dev, true); err != nil {
			cmdutil.Die("ahs: %v", err)
		}
	case "flash":
		if err := conn.FlashHook(dev, *flashMs); err != nil {
			cmdutil.Die("ahs: %v", err)
		}
	case "query":
		offHook, loop, err := conn.QueryPhone(dev)
		if err != nil {
			cmdutil.Die("ahs: %v", err)
		}
		state := "on hook"
		if offHook {
			state = "off hook"
		}
		lc := "no loop current"
		if loop {
			lc = "loop current present"
		}
		fmt.Printf("%s, %s\n", state, lc)
	default:
		cmdutil.Die("ahs: unknown command %q", flag.Arg(0))
	}
	if err := conn.Sync(); err != nil {
		cmdutil.Die("ahs: %v", err)
	}
}
