package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// SetupRequest is the first message a client sends: its byte order, the
// protocol version it speaks, and authentication data, exactly as in the
// X Window System.
type SetupRequest struct {
	ByteOrder byte // LittleEndianOrder or BigEndianOrder
	Major     uint16
	Minor     uint16
	AuthName  string
	AuthData  []byte
}

// Send serializes the setup request onto the stream.
func (s *SetupRequest) Send(wr io.Writer) error {
	order, err := OrderFor(s.ByteOrder)
	if err != nil {
		return err
	}
	w := &Writer{Order: order}
	w.U8(s.ByteOrder)
	w.U8(0)
	w.U16(s.Major)
	w.U16(s.Minor)
	w.U16(uint16(len(s.AuthName)))
	w.U16(uint16(len(s.AuthData)))
	w.Skip(2) // pad header to 12 bytes
	w.String4(s.AuthName)
	w.Bytes(s.AuthData)
	w.Pad()
	_, err = wr.Write(w.Buf)
	return err
}

// ReadSetupRequest parses a setup request from the stream and returns it
// with the client's byte order.
func ReadSetupRequest(rd io.Reader) (*SetupRequest, binary.ByteOrder, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		return nil, nil, err
	}
	order, err := OrderFor(hdr[0])
	if err != nil {
		return nil, nil, err
	}
	s := &SetupRequest{
		ByteOrder: hdr[0],
		Major:     order.Uint16(hdr[2:]),
		Minor:     order.Uint16(hdr[4:]),
	}
	nameLen := int(order.Uint16(hdr[6:]))
	dataLen := int(order.Uint16(hdr[8:]))
	rest := make([]byte, Pad4(nameLen)+Pad4(dataLen))
	if _, err := io.ReadFull(rd, rest); err != nil {
		return nil, nil, err
	}
	s.AuthName = string(rest[:nameLen])
	s.AuthData = append([]byte(nil), rest[Pad4(nameLen):Pad4(nameLen)+dataLen]...)
	return s, order, nil
}

// Setup is the client side of the setup exchange: it sends a setup
// request for this protocol version in order, carrying authName and
// authData (either may be empty), on w and reads the server's reply from
// r. A success or a setup redirect is returned; a refusal is an error,
// returned with the reply that carries its reason.
func Setup(w io.Writer, r io.Reader, order binary.ByteOrder, authName string, authData []byte) (*SetupReply, error) {
	req := SetupRequest{ByteOrder: LittleEndianOrder, Major: ProtocolMajor, Minor: ProtocolMinor,
		AuthName: authName, AuthData: authData}
	if order == binary.ByteOrder(binary.BigEndian) {
		req.ByteOrder = BigEndianOrder
	}
	if err := req.Send(w); err != nil {
		return nil, fmt.Errorf("proto: setup: %w", err)
	}
	rep, err := ReadSetupReply(r, order)
	if err != nil {
		return nil, fmt.Errorf("proto: setup reply: %w", err)
	}
	if !rep.Success && !rep.Redirect() {
		return rep, fmt.Errorf("proto: setup refused: %s", rep.Reason)
	}
	return rep, nil
}

// DeviceDesc describes one abstract audio device in the setup reply: the
// attributes of §5.4 — sampling rates, native sample types, channel
// counts, buffer sizes, and the input/output and telephone-connection
// masks.
type DeviceDesc struct {
	Index           uint8
	Type            uint8 // DevCodec, DevHiFi, DevMono, DevPhone
	PlaySampleFreq  uint32
	PlayBufType     uint8 // sampleconv.Encoding value
	PlayNchannels   uint8
	PlayNSamplesBuf uint32
	RecSampleFreq   uint32
	RecBufType      uint8
	RecNchannels    uint8
	RecNSamplesBuf  uint32
	NumberOfInputs  uint8
	NumberOfOutputs uint8
	InputsFromPhone uint32
	OutputsToPhone  uint32
	Name            string
}

func (d *DeviceDesc) encode(w *Writer) {
	w.U8(d.Index)
	w.U8(d.Type)
	w.U8(uint8(len(d.Name)))
	w.U8(0)
	w.U32(d.PlaySampleFreq)
	w.U8(d.PlayBufType)
	w.U8(d.PlayNchannels)
	w.Skip(2)
	w.U32(d.PlayNSamplesBuf)
	w.U32(d.RecSampleFreq)
	w.U8(d.RecBufType)
	w.U8(d.RecNchannels)
	w.Skip(2)
	w.U32(d.RecNSamplesBuf)
	w.U8(d.NumberOfInputs)
	w.U8(d.NumberOfOutputs)
	w.Skip(2)
	w.U32(d.InputsFromPhone)
	w.U32(d.OutputsToPhone)
	w.String4(d.Name)
}

func (d *DeviceDesc) decode(r *Reader) {
	d.Index = r.U8()
	d.Type = r.U8()
	nameLen := int(r.U8())
	r.Skip(1)
	d.PlaySampleFreq = r.U32()
	d.PlayBufType = r.U8()
	d.PlayNchannels = r.U8()
	r.Skip(2)
	d.PlayNSamplesBuf = r.U32()
	d.RecSampleFreq = r.U32()
	d.RecBufType = r.U8()
	d.RecNchannels = r.U8()
	r.Skip(2)
	d.RecNSamplesBuf = r.U32()
	d.NumberOfInputs = r.U8()
	d.NumberOfOutputs = r.U8()
	r.Skip(2)
	d.InputsFromPhone = r.U32()
	d.OutputsToPhone = r.U32()
	d.Name = r.String4(nameLen)
}

// SetupReply is the server's response to connection setup: a session
// (Success), a refusal (Reason), or a setup redirect (RedirectAddr).
type SetupReply struct {
	Success bool
	Reason  string // when Success is false
	// RedirectNetwork and RedirectAddr, when RedirectAddr is set on a
	// reply that is not a success, make it a setup redirect (status byte
	// 2): a fleet router's answer to RouteDirectAuthName. No session was
	// opened; the client sets up at that address instead. A client that
	// predates redirects reads it as a refusal with an empty reason.
	RedirectNetwork string
	RedirectAddr    string
	Major           uint16
	Minor           uint16
	Vendor          string
	Devices         []DeviceDesc
}

// Setup reply status bytes.
const (
	setupRefused  = 0
	setupSuccess  = 1
	setupRedirect = 2
)

// Redirect reports whether the reply is a setup redirect.
func (s *SetupReply) Redirect() bool { return !s.Success && s.RedirectAddr != "" }

// Send serializes the setup reply in the client's byte order.
func (s *SetupReply) Send(wr io.Writer, order binary.ByteOrder) error {
	w := &Writer{Order: order}
	switch {
	case s.Success:
		w.U8(setupSuccess)
		w.U8(0)
	case s.Redirect():
		if len(s.RedirectNetwork) > 0xFFFF || len(s.RedirectAddr) > 0xFFFF {
			return errors.New("proto: setup redirect address too long")
		}
		w.U8(setupRedirect)
		w.U8(0)
	default:
		w.U8(setupRefused)
		w.U8(uint8(len(s.Reason)))
	}
	w.U16(s.Major)
	w.U16(s.Minor)
	lenOff := w.Len()
	w.U16(0) // additional length in 4-byte units, patched below
	switch {
	case s.Success:
		// The count is a uint8: past 255 devices (the PBX workloads), the
		// rest are reached by index only (event selection, GetTime).
		devs := s.Devices[:min(len(s.Devices), 255)]
		w.U16(uint16(len(s.Vendor)))
		w.U8(uint8(len(devs)))
		w.U8(0)
		w.String4(s.Vendor)
		for i := range devs {
			devs[i].encode(w)
		}
	case s.Redirect():
		w.U16(uint16(len(s.RedirectNetwork)))
		w.U16(uint16(len(s.RedirectAddr)))
		w.String4(s.RedirectNetwork)
		w.String4(s.RedirectAddr)
	default:
		w.String4(s.Reason)
	}
	order.PutUint16(w.Buf[lenOff:], uint16((w.Len()-8)/4))
	_, err := wr.Write(w.Buf)
	return err
}

// ReadSetupReplyBytes reads one setup reply from the stream as it came:
// the 8-byte header and the additional length, in 4-byte units, that the
// header's last word announces.
func ReadSetupReplyBytes(rd io.Reader, order binary.ByteOrder) ([]byte, error) {
	rep := make([]byte, 8)
	if _, err := io.ReadFull(rd, rep); err != nil {
		return nil, err
	}
	rep = append(rep, make([]byte, int(order.Uint16(rep[6:]))*4)...)
	_, err := io.ReadFull(rd, rep[8:])
	return rep, err
}

// SetupReplySuccess reports whether rep, a setup reply as
// ReadSetupReplyBytes read it, opened a session.
func SetupReplySuccess(rep []byte) bool { return len(rep) > 0 && rep[0] == setupSuccess }

// ReadSetupReply parses a setup reply from the stream.
func ReadSetupReply(rd io.Reader, order binary.ByteOrder) (*SetupReply, error) {
	b, err := ReadSetupReplyBytes(rd, order)
	if err != nil {
		return nil, err
	}
	s := &SetupReply{
		Success: SetupReplySuccess(b),
		Major:   order.Uint16(b[2:]),
		Minor:   order.Uint16(b[4:]),
	}
	r := NewReader(order, b[8:])
	switch b[0] {
	case setupSuccess: // decoded below
	case setupRedirect:
		netLen, addrLen := int(r.U16()), int(r.U16())
		s.RedirectNetwork = r.String4(netLen)
		s.RedirectAddr = r.String4(addrLen)
		if r.Err == nil && s.RedirectAddr == "" {
			r.Err = errors.New("empty address")
		}
		if r.Err != nil {
			return nil, fmt.Errorf("proto: bad setup redirect: %w", r.Err)
		}
		return s, nil
	default:
		s.Reason = r.String4(int(b[1]))
		return s, r.Err
	}
	vendorLen := int(r.U16())
	ndev := int(r.U8())
	r.Skip(1)
	s.Vendor = r.String4(vendorLen)
	s.Devices = make([]DeviceDesc, ndev)
	for i := range s.Devices {
		s.Devices[i].decode(r)
	}
	if r.Err != nil {
		return nil, fmt.Errorf("proto: bad setup reply: %w", r.Err)
	}
	return s, nil
}
