// aprop displays and modifies properties attached to AudioFile devices
// (§8.5), and can track changes to them, the inter-client communication
// mechanism of §5.9.
//
//	aprop [-a server] [-d device]                 # list properties
//	aprop [-a server] [-d device] -set NAME value # set a STRING property
//	aprop [-a server] [-d device] -delete NAME
//	aprop [-a server] [-d device] -watch          # report changes
package main

import (
	"flag"
	"fmt"

	"audiofile/af"
	"audiofile/cmd/internal/cmdutil"
)

func main() {
	server := cmdutil.ServerFlag("AudioFile server")
	device := cmdutil.DeviceFlag(0, "device whose properties to use")
	set := flag.String("set", "", "set a STRING property to the next argument")
	del := flag.String("delete", "", "delete a property")
	watch := flag.Bool("watch", false, "watch for property changes")
	flag.Parse()

	conn := cmdutil.OpenServer(*server)
	defer conn.Close()
	dev := *device

	if *set != "" {
		if flag.NArg() != 1 {
			cmdutil.Die("usage: aprop -set NAME value")
		}
		atom, err := conn.InternAtom(*set, false)
		if err != nil {
			cmdutil.Die("aprop: %v", err)
		}
		err = conn.ChangeProperty(dev, atom, af.AtomSTRING, 8, af.PropModeReplace,
			[]byte(flag.Arg(0)))
		if err != nil {
			cmdutil.Die("aprop: %v", err)
		}
		if err := conn.Sync(); err != nil {
			cmdutil.Die("aprop: %v", err)
		}
		return
	}
	if *del != "" {
		atom, err := conn.InternAtom(*del, true)
		if err != nil || atom == af.AtomNone {
			cmdutil.Die("aprop: no such property %q", *del)
		}
		if err := conn.DeleteProperty(dev, atom); err != nil {
			cmdutil.Die("aprop: %v", err)
		}
		if err := conn.Sync(); err != nil {
			cmdutil.Die("aprop: %v", err)
		}
		return
	}
	if *watch {
		if err := conn.SelectEvents(dev, af.MaskPropertyChange); err != nil {
			cmdutil.Die("aprop: %v", err)
		}
		for {
			ev, err := conn.NextEvent()
			if err != nil {
				cmdutil.Die("aprop: %v", err)
			}
			if ev.Code != af.EventPropertyChange {
				continue
			}
			name, _ := conn.GetAtomName(af.Atom(ev.Value))
			if ev.Detail == 1 {
				fmt.Printf("%s deleted\n", name)
				continue
			}
			v, err := conn.GetProperty(dev, af.Atom(ev.Value), af.AtomNone, false)
			if err != nil {
				continue
			}
			fmt.Printf("%s = %q\n", name, v.Data)
		}
	}

	// Default: list all properties with values.
	atoms, err := conn.ListProperties(dev)
	if err != nil {
		cmdutil.Die("aprop: %v", err)
	}
	for _, a := range atoms {
		name, _ := conn.GetAtomName(a)
		v, err := conn.GetProperty(dev, a, af.AtomNone, false)
		if err != nil {
			continue
		}
		tname, _ := conn.GetAtomName(v.Type)
		if v.Type == af.AtomSTRING {
			fmt.Printf("%s(%s) = %q\n", name, tname, v.Data)
		} else {
			fmt.Printf("%s(%s) = %x\n", name, tname, v.Data)
		}
	}
}
