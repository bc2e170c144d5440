// radio is the network audio broadcast client pair of §9.6: radio_mcast
// transmits audio using multicast (or unicast/broadcast) UDP, and many
// receivers run radio_recv to listen in — the original relayed radio
// broadcasts into parts of the building with poor reception.
//
//	radio -send [-a server | -stdin | -channel] [-addr 239.9.9.9:5004] [-rate 8000]
//	radio -recv [-a server] [-addr 239.9.9.9:5004] [-delay 0.3]
//
// Audio travels as µ-law datagrams with a sequence number and sender
// sample index. The receiver schedules each datagram at receiver device
// time using the sender's sample indices relative to the first packet
// heard, plus a fixed anti-jitter delay — explicit client control of time
// makes lost or reordered datagrams a non-event: their interval simply
// plays as whatever else arrived, or silence.
//
// With -channel the sender relays the server's broadcast channel (the
// device's play mix, pushed by the server) instead of recording: what
// every client is playing on the device goes out over the air. At exit
// (or SIGINT) the receiver reports how the network treated the stream:
// datagrams received, lost (sequence gaps), late (scheduled behind the
// receiver's device time, so they played partly as silence), and the
// minimum/average scheduling slack — how far ahead of the device each
// datagram was scheduled, the headroom the -delay budget actually left.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/signal"

	"audiofile/af"
	"audiofile/cmd/internal/cmdutil"
)

const hdrBytes = 12 // magic u32, seq u32, sampleIndex u32

const magic = 0x41465230 // "AFR0"

func main() {
	send := flag.Bool("send", false, "transmit audio")
	recv := flag.Bool("recv", false, "receive and play audio")
	server := cmdutil.ServerFlag("AudioFile server")
	device := cmdutil.DeviceFlag(-1, "audio device")
	addr := flag.String("addr", "239.9.9.9:5004", "group or host:port to use")
	useStdin := flag.Bool("stdin", false, "send: read µ-law audio from stdin instead of recording")
	channel := flag.Bool("channel", false, "send: relay the device's broadcast channel instead of recording")
	rate := flag.Int("rate", 8000, "sample rate for -stdin sends")
	delay := flag.Float64("delay", 0.3, "recv: anti-jitter playout delay in seconds")
	blocks := flag.Int("n", -1, "number of blocks to send/receive before exiting")
	flag.Parse()

	switch {
	case *send == *recv:
		cmdutil.Die("radio: exactly one of -send or -recv required")
	case *useStdin && *channel:
		cmdutil.Die("radio: -stdin and -channel are mutually exclusive")
	case *send:
		doSend(*server, *device, *addr, *useStdin, *channel, *rate, *blocks)
	case *recv:
		doRecv(*server, *device, *addr, *delay, *blocks)
	}
}

func doSend(server string, device int, addr string, useStdin, channel bool, rate, blocks int) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		cmdutil.Die("radio: %v", err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		cmdutil.Die("radio: %v", err)
	}
	defer conn.Close()

	var next func(buf []byte) (int, bool) // fills a block, reports ok
	switch {
	case useStdin:
		next = func(buf []byte) (int, bool) {
			n, err := io.ReadFull(os.Stdin, buf)
			if n == 0 || (err != nil && err != io.ErrUnexpectedEOF) {
				return n, n > 0
			}
			return n, true
		}
	case channel:
		// Relay the broadcast channel: the server pushes the device's play
		// mix, already encoded, so the sender never records and never
		// competes with the clients whose audio it is relaying.
		c := cmdutil.OpenServer(server)
		defer c.Close()
		dev := cmdutil.PickDevice(c, device)
		rate = c.Devices()[dev].PlaySampleFreq
		ac, err := c.CreateAC(dev, 0, af.ACAttributes{})
		if err != nil {
			cmdutil.Die("radio: %v", err)
		}
		sub, _, err := ac.Subscribe()
		if err != nil {
			cmdutil.Die("radio: subscribe: %v", err)
		}
		var pending []byte
		next = func(buf []byte) (int, bool) {
			for len(pending) < len(buf) {
				ch, err := sub.Next()
				if err != nil {
					if len(pending) > 0 {
						n := copy(buf, pending)
						pending = pending[:0]
						return n, true
					}
					return 0, false
				}
				pending = append(pending, ch.Data...)
			}
			n := copy(buf, pending)
			pending = pending[:copy(pending, pending[n:])]
			return n, true
		}
	default:
		c := cmdutil.OpenServer(server)
		defer c.Close()
		dev := cmdutil.PickDevice(c, device)
		rate = c.Devices()[dev].RecSampleFreq
		ac, err := c.CreateAC(dev, 0, af.ACAttributes{})
		if err != nil {
			cmdutil.Die("radio: %v", err)
		}
		t, err := ac.GetTime()
		if err != nil {
			cmdutil.Die("radio: %v", err)
		}
		next = func(buf []byte) (int, bool) {
			_, n, err := ac.RecordSamples(t, buf, true)
			if err != nil {
				return 0, false
			}
			t = t.Add(n)
			return n, true
		}
	}

	block := rate / 20 // 50 ms datagrams
	pkt := make([]byte, hdrBytes+block)
	seq := uint32(0)
	sampleIndex := uint32(0)
	for i := 0; blocks < 0 || i < blocks; i++ {
		n, ok := next(pkt[hdrBytes : hdrBytes+block])
		if !ok {
			return
		}
		binary.BigEndian.PutUint32(pkt[0:], magic)
		binary.BigEndian.PutUint32(pkt[4:], seq)
		binary.BigEndian.PutUint32(pkt[8:], sampleIndex)
		if _, err := conn.Write(pkt[:hdrBytes+n]); err != nil {
			cmdutil.Die("radio: send: %v", err)
		}
		seq++
		sampleIndex += uint32(n)
		if n < block {
			return // stdin drained
		}
	}
}

func doRecv(server string, device int, addr string, delay float64, blocks int) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		cmdutil.Die("radio: %v", err)
	}
	var pc *net.UDPConn
	if ua.IP.IsMulticast() {
		pc, err = net.ListenMulticastUDP("udp", nil, ua)
	} else {
		pc, err = net.ListenUDP("udp", ua)
	}
	if err != nil {
		cmdutil.Die("radio: %v", err)
	}
	defer pc.Close()

	c := cmdutil.OpenServer(server)
	defer c.Close()
	dev := cmdutil.PickDevice(c, device)
	rate := c.Devices()[dev].PlaySampleFreq
	ac, err := c.CreateAC(dev, 0, af.ACAttributes{})
	if err != nil {
		cmdutil.Die("radio: %v", err)
	}

	// SIGINT closes the socket; the read loop breaks and the stats print
	// on the way out, same as a normal -n exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		pc.Close()
	}()

	// Network-treatment accounting, reported at exit: lost is sequence
	// gaps, late is datagrams scheduled behind device time (their missed
	// prefix played as silence), and slack is how many samples ahead of
	// device time each datagram landed — the anti-jitter headroom left.
	var (
		pkts, lost, late int64
		slackSum         int64
		slackMin         = int64(math.MaxInt64)
	)

	buf := make([]byte, 64<<10)
	var base af.ATime // receiver device time of the sender's sample 0
	haveBase := false
	var baseIndex, nextSeq uint32
	for i := 0; blocks < 0 || i < blocks; i++ {
		n, _, err := pc.ReadFromUDP(buf)
		if err != nil {
			break // socket closed (SIGINT) or gone
		}
		if n < hdrBytes || binary.BigEndian.Uint32(buf[0:]) != magic {
			continue
		}
		seq := binary.BigEndian.Uint32(buf[4:])
		sampleIndex := binary.BigEndian.Uint32(buf[8:])
		data := buf[hdrBytes:n]
		now, err := ac.GetTime()
		if err != nil {
			cmdutil.Die("radio: %v", err)
		}
		if !haveBase {
			base = now.Add(int(delay * float64(rate)))
			baseIndex = sampleIndex
			nextSeq = seq
			haveBase = true
		}
		if d := int32(seq - nextSeq); d > 0 {
			lost += int64(d)
		}
		nextSeq = seq + 1
		at := base.Add(int(int32(sampleIndex - baseIndex)))
		slack := int64(af.TimeSub(at, now))
		pkts++
		slackSum += slack
		if slack < slackMin {
			slackMin = slack
		}
		if slack < 0 {
			late++
		}
		if _, err := ac.PlaySamples(at, data); err != nil {
			cmdutil.Die("radio: %v", err)
		}
	}

	if pkts == 0 {
		fmt.Fprintln(os.Stderr, "radio: no datagrams received")
		return
	}
	toMS := func(samples int64) float64 { return float64(samples) * 1000 / float64(rate) }
	fmt.Fprintf(os.Stderr,
		"radio: %d datagrams, %d lost, %d late; scheduling slack min %.1fms avg %.1fms (delay budget %.0fms)\n",
		pkts, lost, late, toMS(slackMin), toMS(slackSum/pkts), delay*1000)
}
