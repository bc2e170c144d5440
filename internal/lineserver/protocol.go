// Package lineserver reproduces the LineServer: the paper's detached
// Ethernet audio peripheral (§4.4, §7.4.3). The real LineServer was a
// 68302 box with an 8 kHz ISDN CODEC and small (2048-sample) play and
// record buffers, driven by an AudioFile server running on a nearby
// workstation over a private UDP protocol with six packet types. Here the
// "firmware" runs as an in-process simulator bound to a real UDP socket,
// and Backend is the workstation side: a core.Backend that keeps the
// AudioFile server's buffers consistent with the remote device, estimates
// device time from reply timestamps, retries register accesses but never
// play or record ("by then, it is probably too late anyway").
package lineserver

import (
	"encoding/binary"
	"fmt"
)

// Function codes: the six packet types of §7.4.3.
const (
	FnPlay     = 1 // play samples
	FnRecord   = 2 // record samples
	FnReadReg  = 3 // read CODEC registers
	FnWriteReg = 4 // write CODEC registers
	FnLoopback = 5 // loopback (for testing)
	FnReset    = 6 // reset
)

// RegOutputGain is the CODEC's output gain register.
const RegOutputGain = 2

// HeaderBytes is the packet header size. "Request and reply packets have
// the same format, with four header fields: sequence number, audio time,
// function code, and parameter. Any extra bytes after the header are
// considered data bytes."
const HeaderBytes = 16

// MaxDataBytes bounds sample payload per packet (inside one Ethernet
// frame, as the original used).
const MaxDataBytes = 1400

// Packet is one LineServer protocol message.
type Packet struct {
	Seq   uint32
	Time  uint32 // audio device time
	Fn    uint8
	Param uint32
	Data  []byte
}

// Marshal serializes the packet.
func (p *Packet) Marshal() []byte {
	buf := make([]byte, HeaderBytes+len(p.Data))
	be := binary.BigEndian // the 68302 is big-endian
	be.PutUint32(buf[0:], p.Seq)
	be.PutUint32(buf[4:], p.Time)
	buf[8] = p.Fn
	be.PutUint32(buf[12:], p.Param)
	copy(buf[HeaderBytes:], p.Data)
	return buf
}

// Parse deserializes a packet.
func Parse(buf []byte) (*Packet, error) {
	if len(buf) < HeaderBytes {
		return nil, fmt.Errorf("lineserver: short packet (%d bytes)", len(buf))
	}
	be := binary.BigEndian
	p := &Packet{
		Seq:   be.Uint32(buf[0:]),
		Time:  be.Uint32(buf[4:]),
		Fn:    buf[8],
		Param: be.Uint32(buf[12:]),
	}
	if len(buf) > HeaderBytes {
		p.Data = append([]byte(nil), buf[HeaderBytes:]...)
	}
	return p, nil
}
