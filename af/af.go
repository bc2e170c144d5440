// Package af is the AudioFile client library: the Go counterpart of the
// paper's AFlib (Tables 3 and 4). It is the sole interface to the
// AudioFile protocol: connection management, audio contexts, timed play
// and record, the event queue, device and telephone control, access
// control, and atoms and properties.
//
// The library mirrors the C API's structure while following Go
// conventions: AFOpenAudioConn is Open, AFPlaySamples is AC.PlaySamples,
// and so on. Requests that need no reply are buffered and sent lazily;
// synchronous requests flush the queue and wait. Play and record requests
// longer than 8 KiB are broken into chunks so no single request occupies
// the server for long, with the play time reply suppressed on all but the
// final chunk.
//
// A Conn serializes all operations with an internal lock; like Xlib, the
// library is designed for the single-threaded client model, but concurrent
// use is safe (operations simply serialize).
package af

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"

	"audiofile/internal/proto"
)

// ATime is an audio device time in sample ticks: a 32-bit counter that
// increments once per sample period and wraps. See TimeAfter/TimeBefore
// for ordering and Add for arithmetic.
type ATime uint32

// TimeAfter reports whether b is later than a in wrapped device time.
func TimeAfter(b, a ATime) bool { return int32(b-a) > 0 }

// TimeBefore reports whether b is earlier than a in wrapped device time.
func TimeBefore(b, a ATime) bool { return int32(b-a) < 0 }

// TimeSub returns the signed tick distance b-a.
func TimeSub(b, a ATime) int32 { return int32(b - a) }

// Add returns t advanced by n ticks (n may be negative).
func (t ATime) Add(n int) ATime { return t + ATime(int32(n)) }

// Encoding identifies a sample data type, matching the server's device
// and audio-context sample types.
type Encoding uint8

// Sample encodings (Table 2's SAMPLE_* atoms).
const (
	MU255  Encoding = 0 // 8-bit µ-law
	ALAW   Encoding = 1 // 8-bit A-law
	LIN16  Encoding = 2 // 16-bit linear
	LIN32  Encoding = 3 // 32-bit linear
	ADPCM4 Encoding = 4 // 4-bit ADPCM (compressed; two samples per byte)
)

// String returns the encoding's name.
func (e Encoding) String() string {
	switch e {
	case MU255:
		return "MU255"
	case ALAW:
		return "ALAW"
	case LIN16:
		return "LIN16"
	case LIN32:
		return "LIN32"
	case ADPCM4:
		return "ADPCM4"
	}
	return fmt.Sprintf("Encoding(%d)", uint8(e))
}

// BytesPerUnit returns the bytes occupied by one sample.
func (e Encoding) BytesPerUnit() int {
	switch e {
	case LIN16:
		return 2
	case LIN32:
		return 4
	default:
		return 1
	}
}

// ProtoError is a protocol error returned by the server.
type ProtoError struct {
	Code     uint8  // proto error code
	Seq      uint16 // sequence number of the failing request
	BadValue uint32
	MajorOp  uint8
}

// Error implements the error interface (AFGetErrorText).
func (e *ProtoError) Error() string {
	name := proto.ErrorName[e.Code]
	if name == "" {
		name = fmt.Sprintf("error code %d", e.Code)
	}
	op := proto.RequestName[e.MajorOp]
	if op == "" {
		op = fmt.Sprintf("opcode %d", e.MajorOp)
	}
	return fmt.Sprintf("af: %s (request %s, value %#x)", name, op, e.BadValue)
}

// GetErrorText translates a protocol error code into a string.
func GetErrorText(code uint8) string {
	if s, ok := proto.ErrorName[code]; ok {
		return s
	}
	return fmt.Sprintf("unknown error code %d", code)
}

// Device describes one server audio device (§5.4's attributes).
type Device struct {
	Index           int
	Type            uint8 // DevCodec, DevHiFi, DevMono, DevPhone
	Name            string
	PlaySampleFreq  int
	PlayBufType     Encoding
	PlayNchannels   int
	PlayNSamplesBuf int // server play buffer size in samples
	RecSampleFreq   int
	RecBufType      Encoding
	RecNchannels    int
	RecNSamplesBuf  int
	NumberOfInputs  int
	NumberOfOutputs int
	InputsFromPhone uint32
	OutputsToPhone  uint32
}

// Device types.
const (
	DevCodec = proto.DevCodec
	DevHiFi  = proto.DevHiFi
	DevMono  = proto.DevMono
	DevPhone = proto.DevPhone
)

// IsPhone reports whether any of the device's inputs or outputs connect
// to a telephone line.
func (d *Device) IsPhone() bool {
	return d.InputsFromPhone != 0 || d.OutputsToPhone != 0
}

// Event is a protocol event delivered to the client (§5.2). All device
// events carry both the audio device time and the server host's clock
// time.
type Event struct {
	Code     uint8 // EventPhoneRing .. EventPropertyChange
	Detail   uint8 // DTMF digit, hook/ring/loop state
	Device   int
	Time     ATime
	HostSec  uint32
	HostNsec uint32
	Value    uint32 // changed property atom for PropertyChange
}

// Event codes.
const (
	EventPhoneRing       = proto.EventPhoneRing
	EventPhoneDTMF       = proto.EventPhoneDTMF
	EventPhoneLoop       = proto.EventPhoneLoop
	EventPhoneHookSwitch = proto.EventPhoneHookSwitch
	EventPropertyChange  = proto.EventPropertyChange
)

// Event selection masks for SelectEvents.
const (
	MaskPhoneRing       = proto.MaskPhoneRing
	MaskPhoneDTMF       = proto.MaskPhoneDTMF
	MaskPhoneLoop       = proto.MaskPhoneLoop
	MaskPhoneHookSwitch = proto.MaskPhoneHookSwitch
	MaskPropertyChange  = proto.MaskPropertyChange
	MaskAllEvents       = proto.MaskAllEvents
)

// Conn is a connection to an AudioFile server: the AFAudioConn.
type Conn struct {
	mu sync.Mutex

	conn  net.Conn
	order binary.ByteOrder
	name  string

	// in is the read side (io.go). On a TCP or Unix socket raw is the
	// transport's RawConn and rawRead its callback (readOnce), bound with
	// the socket (bindRaw) so a call passes no fresh closure; tx is the
	// exchange's write, iov its scatter list and txErr how it failed,
	// pushed records a subscription made on this socket (so the exchange
	// reads first), and probing turns the read's EAGAIN into done for a
	// poll. Elsewhere raw is nil.
	in      ingress
	raw     syscall.RawConn
	rawRead func(fd uintptr) bool
	tx      [][]byte
	iov     iovecs
	txErr   error
	pushed  bool
	probing bool

	// network/addr is the redial target captured by Open; empty for
	// connections made over a caller-supplied transport (NewConn).
	network, addr string

	// route is the routing key sent in the setup request's auth fields
	// (proto.RouteAuthName) when the server is a fleet router; it is
	// replayed on every reconnect so a redirected session is re-placed
	// by the same directory lookup. Empty for direct connections.
	route string

	// rmsg is the reusable incoming-message buffer: the reply stream is
	// parsed into it without allocating. Its contents (including any Extra
	// bytes) are only valid until the next read, so anything handed to
	// the application is copied out first.
	rmsg proto.Message

	w       proto.Writer // outgoing request buffer
	sentSeq uint16       // sequence number of the last request buffered

	// pvec, when not empty, is what ships the buffered requests instead of
	// w.Buf alone: a large play's chunk headers in w.Buf interleaved with
	// the caller's sample slices (AC.playVectored), in a list reused from
	// play to play. hdrEnds are the end offsets of the chunk headers inside
	// w.Buf; one is the single-slice vector w.Buf ships as (pending). wvec
	// is the net.Buffers view consumed by WriteTo; it lives on the Conn so
	// taking its address does not allocate per write.
	pvec    [][]byte
	hdrEnds []int
	one     [1][]byte
	wvec    net.Buffers

	events []*Event

	vendor  string
	devices []Device

	nextACID uint32
	// acs tracks the live audio contexts by id, so a reconnect can
	// recreate them (ids are client-allocated; attributes are mirrored).
	acs map[uint32]*AC
	// subs routes pushed broadcast chunks by channel id (device index);
	// see subscribe.go.
	subs map[uint32]*Subscription

	synchronous bool
	afterFunc   func(*Conn)

	errHandler   func(*Conn, *ProtoError)
	ioErrHandler func(*Conn, error)

	// reconnect enables transparent reconnection (see SetReconnect);
	// closeNotice records a connection-scoped typed error the server sent
	// before closing (Overload eviction, Drain shutdown), so the
	// transport failure that follows is surfaced as a ServerClosedError.
	reconnect   *ReconnectOptions
	closeNotice uint8

	ioErr  error
	closed bool
}

// BasePort is the TCP port of server number 0; server :n listens on
// BasePort+n, as the X convention uses 6000+n.
const BasePort = 7000

// unixSocketPath returns the Unix socket path of server number display.
func unixSocketPath(display int) string {
	return fmt.Sprintf("/tmp/.AFunix/AF%d", display)
}

// Open connects to an AudioFile server: the AFOpenAudioConn call. The
// server is chosen by name, or the AUDIOFILE environment variable, or the
// DISPLAY variable as a convenient fallback (the user's workstation
// usually has both audio and graphics).
//
// Name forms: "host:n" connects via TCP to port BasePort+n; ":n" or
// "unix:n" via the local socket /tmp/.AFunix/AFn; "tcp:host:port" and
// "unix:/path" name transports explicitly. A "#key" suffix on any form
// sets a routing key for a fleet router (see OpenRoute): "router:0#studio"
// asks the router at router:0 to place the session by the key "studio".
func Open(name string) (*Conn, error) {
	if name == "" {
		name = os.Getenv("AUDIOFILE")
	}
	if name == "" {
		name = os.Getenv("DISPLAY")
	}
	if name == "" {
		return nil, fmt.Errorf("af: no server name and no AUDIOFILE or DISPLAY environment variable")
	}
	display := name
	route := ""
	if i := strings.LastIndexByte(name, '#'); i >= 0 {
		name, route = name[:i], name[i+1:]
	}
	network, addr, err := resolveName(name)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("af: can't open connection to %s: %w", name, err)
	}
	c, err := NewConnRoute(conn, false, route)
	if err != nil {
		return nil, err
	}
	c.name = display
	c.network, c.addr = network, addr
	return c, nil
}

// OpenRoute is Open with an explicit routing key, equivalent to a "#key"
// suffix on the server name. The key travels in the setup request's auth
// fields; a fleet router (cmd/arouter) hashes it onto its backend
// directory to choose the afd that serves the session, and a direct afd
// ignores it.
func OpenRoute(name, route string) (*Conn, error) {
	if route == "" {
		return Open(name)
	}
	return Open(name + "#" + route)
}

// resolveName parses a server name into a dialable address.
func resolveName(name string) (network, addr string, err error) {
	var host string
	var disp int
	switch {
	case len(name) > 5 && name[:5] == "unix:" && name[5] == '/':
		return "unix", name[5:], nil
	case len(name) > 4 && name[:4] == "tcp:":
		return "tcp", name[4:], nil
	}
	if n, _ := fmt.Sscanf(name, ":%d", &disp); n == 1 {
		return "unix", unixSocketPath(disp), nil
	}
	if n, _ := fmt.Sscanf(name, "unix:%d", &disp); n == 1 {
		return "unix", unixSocketPath(disp), nil
	}
	if n, _ := fmt.Sscanf(name, "%s", &host); n == 1 {
		// host:n
		for i := len(name) - 1; i >= 0; i-- {
			if name[i] == ':' {
				host = name[:i]
				if _, err := fmt.Sscanf(name[i+1:], "%d", &disp); err != nil {
					return "", "", fmt.Errorf("af: bad display number in %q", name)
				}
				return "tcp", fmt.Sprintf("%s:%d", host, BasePort+disp), nil
			}
		}
	}
	return "", "", fmt.Errorf("af: can't parse server name %q", name)
}

// NewConn performs the AudioFile handshake over an existing transport
// connection (useful for in-process pipes and custom transports).
func NewConn(conn net.Conn) (*Conn, error) {
	return NewConnOrder(conn, false)
}

// NewConnOrder is NewConn with an explicit wire byte order; bigEndian
// exercises the server's byte-swapping path, as a client on an
// opposite-order machine would.
func NewConnOrder(conn net.Conn, bigEndian bool) (*Conn, error) {
	return NewConnRoute(conn, bigEndian, "")
}

// redirectDialTimeout bounds the dials a setup redirect leads to, as the
// router's default DialTimeout bounds its own. (Go's TCP conns start with
// Nagle off, as a session's should be.)
const redirectDialTimeout = 5 * time.Second

// handshake performs the setup on nc and returns the transport the
// session runs on, with the server's reply. A client with a routing key
// on a socket it dialed itself advertises proto.RouteDirectAuthName, and
// a fleet router may answer with a setup redirect. The session is then
// set up at the owning backend directly, under proto.RouteAuthName so
// that a chained router proxies rather than redirecting again. If that
// dial or setup fails, it is proxied through the router at nc's own
// address instead, whose placement walks past a dead owner. handshake
// owns nc: it closes nc on failure and after a redirect.
func handshake(nc net.Conn, order binary.ByteOrder, route string) (net.Conn, *proto.SetupReply, error) {
	var direct bool
	switch nc.(type) {
	case *net.TCPConn, *net.UnixConn:
		direct = route != ""
	}
	rep, err := setup(nc, order, route, direct)
	if err != nil || !rep.Redirect() {
		if err != nil {
			nc.Close()
		}
		return nc, rep, err
	}
	router := nc.RemoteAddr()
	nc.Close()
	if dc, err := net.DialTimeout(rep.RedirectNetwork, rep.RedirectAddr, redirectDialTimeout); err == nil {
		if rep, err := setup(dc, order, route, false); err == nil {
			return dc, rep, nil
		}
		dc.Close()
	}
	fc, err := net.DialTimeout(router.Network(), router.String(), redirectDialTimeout)
	if err != nil {
		return nil, nil, fmt.Errorf("af: setup after redirect: %w", err)
	}
	if rep, err = setup(fc, order, route, false); err != nil {
		fc.Close()
		return nil, nil, err
	}
	return fc, rep, nil
}

// setup sends one setup request, carrying the routing key in the auth
// fields when one is set, and reads the reply: a session, or — only when
// direct advertised that the client can follow one — a setup redirect.
func setup(nc net.Conn, order binary.ByteOrder, route string, direct bool) (*proto.SetupReply, error) {
	s := proto.SetupRequest{
		ByteOrder: proto.LittleEndianOrder,
		Major:     proto.ProtocolMajor,
		Minor:     proto.ProtocolMinor,
	}
	if order == binary.ByteOrder(binary.BigEndian) {
		s.ByteOrder = proto.BigEndianOrder
	}
	if route != "" {
		s.AuthName = proto.RouteAuthName
		if direct {
			s.AuthName = proto.RouteDirectAuthName
		}
		s.AuthData = []byte(route)
	}
	if err := s.Send(nc); err != nil {
		return nil, fmt.Errorf("af: setup: %w", err)
	}
	rep, err := proto.ReadSetupReply(nc, order)
	if err != nil {
		return nil, fmt.Errorf("af: setup reply: %w", err)
	}
	if !rep.Success && !(direct && rep.Redirect()) {
		return nil, fmt.Errorf("af: connection refused: %s", rep.Reason)
	}
	return rep, nil
}

// NewConnRoute is NewConnOrder with a routing key for a fleet router;
// see OpenRoute. The key is replayed on reconnect, so failover keeps the
// session's directory placement. Over a plain TCP or Unix socket the
// router may place the session by redirect, and the returned Conn then
// talks to the owning backend directly.
func NewConnRoute(conn net.Conn, bigEndian bool, route string) (*Conn, error) {
	var order binary.ByteOrder = binary.LittleEndian
	if bigEndian {
		order = binary.BigEndian
	}
	conn, rep, err := handshake(conn, order, route)
	if err != nil {
		return nil, err
	}
	c := &Conn{
		conn:     conn,
		order:    order,
		name:     conn.RemoteAddr().String(),
		route:    route,
		w:        proto.Writer{Order: order},
		vendor:   rep.Vendor,
		nextACID: 1,
		acs:      make(map[uint32]*AC),
		subs:     make(map[uint32]*Subscription),
	}
	c.bindRaw()
	for _, d := range rep.Devices {
		c.devices = append(c.devices, Device{
			Index:           int(d.Index),
			Type:            d.Type,
			Name:            d.Name,
			PlaySampleFreq:  int(d.PlaySampleFreq),
			PlayBufType:     Encoding(d.PlayBufType),
			PlayNchannels:   int(d.PlayNchannels),
			PlayNSamplesBuf: int(d.PlayNSamplesBuf),
			RecSampleFreq:   int(d.RecSampleFreq),
			RecBufType:      Encoding(d.RecBufType),
			RecNchannels:    int(d.RecNchannels),
			RecNSamplesBuf:  int(d.RecNSamplesBuf),
			NumberOfInputs:  int(d.NumberOfInputs),
			NumberOfOutputs: int(d.NumberOfOutputs),
			InputsFromPhone: d.InputsFromPhone,
			OutputsToPhone:  d.OutputsToPhone,
		})
	}
	return c, nil
}

// Close flushes pending requests and closes the connection
// (AFCloseAudioConn).
func (c *Conn) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.flushLocked() //nolint:errcheck
	c.closed = true
	c.conn.Close()
	c.in.release()
}

// Name returns the server name used to open the connection
// (AFAudioConnName).
func (c *Conn) Name() string { return c.name }

// Vendor returns the server's identification string.
func (c *Conn) Vendor() string { return c.vendor }

// Devices returns the audio devices the server exported at setup.
func (c *Conn) Devices() []Device { return c.devices }

// FindDefaultDevice returns the index of the lowest-numbered device not
// connected to the telephone — usually the local loudspeaker — or -1.
func (c *Conn) FindDefaultDevice() int {
	for _, d := range c.devices {
		if !d.IsPhone() {
			return d.Index
		}
	}
	return -1
}

// FindPhoneDevice returns the index of the first telephone device, or -1.
func (c *Conn) FindPhoneDevice() int {
	for _, d := range c.devices {
		if d.IsPhone() {
			return d.Index
		}
	}
	return -1
}

// SetErrorHandler installs a handler for protocol errors that arrive
// asynchronously (for requests with no reply). The default logs to
// standard error.
func (c *Conn) SetErrorHandler(h func(*Conn, *ProtoError)) {
	c.mu.Lock()
	c.errHandler = h
	c.mu.Unlock()
}

// SetIOErrorHandler installs a handler for fatal transport errors. The
// default prints the error to standard error; unlike the C library's, it
// does not exit.
func (c *Conn) SetIOErrorHandler(h func(*Conn, error)) {
	c.mu.Lock()
	c.ioErrHandler = h
	c.mu.Unlock()
}

// Synchronize enables or disables synchronous mode: with it on, every
// request round-trips immediately (useful when debugging).
func (c *Conn) Synchronize(on bool) {
	c.mu.Lock()
	c.synchronous = on
	c.mu.Unlock()
}

// SetAfterFunction installs a hook run after every buffered request, the
// AFSetAfterFunction mechanism. The hook runs with the connection lock
// held.
func (c *Conn) SetAfterFunction(fn func(*Conn)) {
	c.mu.Lock()
	c.afterFunc = fn
	c.mu.Unlock()
}
