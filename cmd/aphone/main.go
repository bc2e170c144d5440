// aphone dials the telephone (§8.4): it digitally synthesizes the DTMF
// tones generated by pushbutton telephones via the AFDialPhone library
// procedure, playing them as ordinary timed audio on the telephone
// device. It also updates the LAST_NUMBER_DIALED property so cooperating
// applications can track dialed numbers (§5.9).
//
//	aphone [-a server] [-d device] [-hold] number
package main

import (
	"flag"
	"time"

	"audiofile/af"
	"audiofile/afutil"
	"audiofile/internal/cmdutil"
)

func main() {
	server := cmdutil.ServerFlag("AudioFile server")
	device := cmdutil.DeviceFlag(-1, "telephone device (default: first phone device)")
	hold := flag.Bool("hold", false, "stay off hook after dialing (default: leave hookswitch as is)")
	flag.Parse()
	if flag.NArg() != 1 {
		cmdutil.Die("usage: aphone [-a server] [-d device] number")
	}
	number := flag.Arg(0)

	conn := cmdutil.OpenServer(*server)
	defer conn.Close()
	dev := cmdutil.PickPhoneDevice(conn, *device)

	// Go off hook to get the line, then dial.
	if err := conn.HookSwitch(dev, true); err != nil {
		cmdutil.Die("aphone: %v", err)
	}
	ac, err := conn.CreateAC(dev, 0, af.ACAttributes{})
	if err != nil {
		cmdutil.Die("aphone: %v", err)
	}
	end, err := afutil.DialPhone(ac, number)
	if err != nil {
		cmdutil.Die("aphone: %v", err)
	}
	// Record the number for other clients (the Table 2 property).
	conn.ChangeProperty(dev, af.AtomLastNumberDialed, af.AtomSTRING, 8, //nolint:errcheck
		af.PropModeReplace, []byte(number))

	// Wait until the dialing tones have played out.
	rate := conn.Devices()[dev].PlaySampleFreq
	for {
		now, err := conn.GetTime(dev)
		if err != nil {
			cmdutil.Die("aphone: %v", err)
		}
		if !af.TimeBefore(now, end) {
			break
		}
		time.Sleep(time.Duration(af.TimeSub(end, now)) * time.Second / time.Duration(rate) / 2)
	}
	if !*hold {
		return // leave the call up; ahs hangs up
	}
	select {} // -hold: keep the process (and the call) alive
}
