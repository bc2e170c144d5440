// aset is the general-purpose device control client (§8.5): it queries
// and sets gains and enables or disables device inputs and outputs.
//
//	aset [-a server] [-d device]                       # show device state
//	aset [-a server] [-d device] -og -6 -ig 3          # set gains
//	aset [-a server] [-d device] -input on -output off # I/O control
package main

import (
	"flag"
	"fmt"

	"audiofile/cmd/internal/cmdutil"
)

func main() {
	server := cmdutil.ServerFlag("AudioFile server")
	device := cmdutil.DeviceFlag(-1, "device to control (default: first non-telephone device)")
	og := flag.Int("og", -1000, "set output gain (volume) in dB")
	ig := flag.Int("ig", -1000, "set input gain in dB")
	input := flag.String("input", "", "enable or disable inputs: on|off")
	output := flag.String("output", "", "enable or disable outputs: on|off")
	passTo := flag.Int("passthrough", -1, "connect this device to another device (pass-through)")
	unpass := flag.Bool("nopassthrough", false, "remove pass-through connections")
	flag.Parse()

	conn := cmdutil.OpenServer(*server)
	defer conn.Close()
	dev := cmdutil.PickDevice(conn, *device)

	changed := false
	if *og != -1000 {
		if err := conn.SetOutputGain(dev, *og); err != nil {
			cmdutil.Die("aset: %v", err)
		}
		changed = true
	}
	if *ig != -1000 {
		if err := conn.SetInputGain(dev, *ig); err != nil {
			cmdutil.Die("aset: %v", err)
		}
		changed = true
	}
	switch *input {
	case "on":
		conn.EnableInput(dev, ^uint32(0)) //nolint:errcheck
		changed = true
	case "off":
		conn.DisableInput(dev, ^uint32(0)) //nolint:errcheck
		changed = true
	}
	switch *output {
	case "on":
		conn.EnableOutput(dev, ^uint32(0)) //nolint:errcheck
		changed = true
	case "off":
		conn.DisableOutput(dev, ^uint32(0)) //nolint:errcheck
		changed = true
	}
	if *passTo >= 0 {
		if err := conn.EnablePassThrough(dev, *passTo); err != nil {
			cmdutil.Die("aset: %v", err)
		}
		changed = true
	}
	if *unpass {
		conn.DisablePassThrough(dev) //nolint:errcheck
		changed = true
	}
	if err := conn.Sync(); err != nil {
		cmdutil.Die("aset: %v", err)
	}
	if changed {
		return
	}

	// No changes requested: report the device state.
	d := conn.Devices()[dev]
	fmt.Printf("device %d (%s): %d Hz, %v, %d channel(s)\n",
		dev, d.Name, d.PlaySampleFreq, d.PlayBufType, d.PlayNchannels)
	fmt.Printf("  play buffer %d samples, record buffer %d samples\n",
		d.PlayNSamplesBuf, d.RecNSamplesBuf)
	fmt.Printf("  %d input(s), %d output(s)", d.NumberOfInputs, d.NumberOfOutputs)
	if d.IsPhone() {
		fmt.Printf(" (telephone line)")
	}
	fmt.Println()
	if cur, minG, maxG, err := conn.QueryOutputGain(dev); err == nil {
		fmt.Printf("  output gain %d dB (range %d..%d)\n", cur, minG, maxG)
	}
	if cur, minG, maxG, err := conn.QueryInputGain(dev); err == nil {
		fmt.Printf("  input gain %d dB (range %d..%d)\n", cur, minG, maxG)
	}
}
