// aevents is the general-purpose event reporter (§8.4): it prints events
// generated by the AudioFile server. With -ringcount it exits after the
// line has rung the given number of times, which is how the shell-script
// answering machine of §8.6 waits for a call.
//
//	aevents [-a server] [-d device] [-ringcount n] [-count n]
package main

import (
	"flag"
	"fmt"

	"audiofile/af"
	"audiofile/internal/cmdutil"
)

func main() {
	server := cmdutil.ServerFlag("AudioFile server")
	device := cmdutil.DeviceFlag(-1, "device to watch (default: all devices)")
	ringCount := flag.Int("ringcount", 0, "exit after this many rings")
	count := flag.Int("count", 0, "exit after this many events")
	quiet := flag.Bool("q", false, "do not print events (useful with -ringcount)")
	flag.Parse()

	conn := cmdutil.OpenServer(*server)
	defer conn.Close()

	if *device >= 0 {
		if err := conn.SelectEvents(*device, af.MaskAllEvents); err != nil {
			cmdutil.Die("aevents: %v", err)
		}
	} else {
		for _, d := range conn.Devices() {
			if err := conn.SelectEvents(d.Index, af.MaskAllEvents); err != nil {
				cmdutil.Die("aevents: %v", err)
			}
		}
	}
	if err := conn.Sync(); err != nil {
		cmdutil.Die("aevents: %v", err)
	}

	rings := 0
	seen := 0
	for {
		ev, err := conn.NextEvent()
		if err != nil {
			cmdutil.Die("aevents: %v", err)
		}
		seen++
		if !*quiet {
			fmt.Println(format(conn, ev))
		}
		if ev.Code == af.EventPhoneRing && ev.Detail == 1 {
			rings++
			if *ringCount > 0 && rings >= *ringCount {
				return
			}
		}
		if *count > 0 && seen >= *count {
			return
		}
	}
}

func format(conn *af.Conn, ev *af.Event) string {
	devName := fmt.Sprintf("device %d", ev.Device)
	if ev.Device < len(conn.Devices()) {
		devName = conn.Devices()[ev.Device].Name
	}
	switch ev.Code {
	case af.EventPhoneRing:
		state := "stopped"
		if ev.Detail == 1 {
			state = "started"
		}
		return fmt.Sprintf("%s: ring %s (time %d)", devName, state, ev.Time)
	case af.EventPhoneDTMF:
		return fmt.Sprintf("%s: DTMF '%c' (time %d)", devName, ev.Detail, ev.Time)
	case af.EventPhoneLoop:
		state := "absent"
		if ev.Detail == 1 {
			state = "present"
		}
		return fmt.Sprintf("%s: loop current %s (time %d)", devName, state, ev.Time)
	case af.EventPhoneHookSwitch:
		state := "on hook"
		if ev.Detail == 1 {
			state = "off hook"
		}
		return fmt.Sprintf("%s: hookswitch %s (time %d)", devName, state, ev.Time)
	case af.EventPropertyChange:
		verb := "changed"
		if ev.Detail == 1 {
			verb = "deleted"
		}
		name, err := conn.GetAtomName(af.Atom(ev.Value))
		if err != nil {
			name = fmt.Sprintf("atom %d", ev.Value)
		}
		return fmt.Sprintf("%s: property %s %s (time %d)", devName, name, verb, ev.Time)
	}
	return fmt.Sprintf("%s: event %d detail %d", devName, ev.Code, ev.Detail)
}
