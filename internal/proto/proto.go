// Package proto defines the AudioFile wire protocol: the 37 protocol
// requests of Table 1, replies, errors, the five event types, connection
// setup, and the built-in atoms of Table 2.
//
// The protocol is modeled on the X Window System protocol, as the paper's
// implementation was. Control and audio data are multiplexed over a single
// reliable byte-stream connection. Every request has a 4-byte header: a
// one-byte opcode, a one-byte opcode extension (per-request flags), and a
// 16-bit length in 32-bit units, limiting requests to 262144 bytes. All
// fields are naturally aligned and requests are padded to a 32-bit
// boundary.
//
// At connection setup the client declares its byte order ('l' or 'B'); the
// server byte-swaps protocol fields for opposite-order clients. Sample
// data carries its own per-request endian flag.
//
// Server-to-client traffic is a stream of 16-byte-header-plus-payload
// replies, and fixed 32-byte errors and events, distinguished by the first
// byte: 0 = error, 1 = reply, else an event code.
package proto

// Protocol version exchanged at connection setup.
const (
	ProtocolMajor = 2 // "AF2R2" era
	ProtocolMinor = 0
)

// Byte-order bytes sent first at connection setup.
const (
	LittleEndianOrder = 'l'
	BigEndianOrder    = 'B'
)

// MaxRequestBytes is the longest possible request (16-bit length field in
// 32-bit units).
const MaxRequestBytes = 1 << 18

// ChunkBytes is the client library's chunking threshold: play and record
// requests longer than this many sample-data bytes are broken into pieces
// so that no single request takes very long for the server to process.
const ChunkBytes = 8192

// Request opcodes (Table 1).
const (
	OpSelectEvents       = 1
	OpCreateAC           = 2
	OpChangeACAttributes = 3
	OpFreeAC             = 4
	OpPlaySamples        = 5
	OpRecordSamples      = 6
	OpGetTime            = 7
	OpQueryPhone         = 8
	OpEnablePassThrough  = 9
	OpDisablePassThrough = 10
	OpHookSwitch         = 11
	OpFlashHook          = 12
	OpEnableGainControl  = 13
	OpDisableGainControl = 14
	OpDialPhone          = 15 // obsolete, do not use
	OpSetInputGain       = 16
	OpSetOutputGain      = 17
	OpQueryInputGain     = 18
	OpQueryOutputGain    = 19
	OpEnableInput        = 20
	OpEnableOutput       = 21
	OpDisableInput       = 22
	OpDisableOutput      = 23
	OpSetAccessControl   = 24
	OpChangeHosts        = 25
	OpListHosts          = 26
	OpInternAtom         = 27
	OpGetAtomName        = 28
	OpChangeProperty     = 29
	OpDeleteProperty     = 30
	OpGetProperty        = 31
	OpListProperties     = 32
	OpNoOperation        = 33
	OpSyncConnection     = 34
	OpQueryExtension     = 35
	OpListExtensions     = 36
	OpKillClient         = 37

	// Broadcast-channel extension requests (not in Table 1): subscribe an
	// audio context to the server-side broadcast of its device's play mix.
	OpSubscribe   = 38
	OpUnsubscribe = 39

	MaxOpcode = 39
)

// RequestName maps an opcode to its protocol name.
var RequestName = map[uint8]string{
	OpSelectEvents:       "SelectEvents",
	OpCreateAC:           "CreateAC",
	OpChangeACAttributes: "ChangeACAttributes",
	OpFreeAC:             "FreeAC",
	OpPlaySamples:        "PlaySamples",
	OpRecordSamples:      "RecordSamples",
	OpGetTime:            "GetTime",
	OpQueryPhone:         "QueryPhone",
	OpEnablePassThrough:  "EnablePassThrough",
	OpDisablePassThrough: "DisablePassThrough",
	OpHookSwitch:         "HookSwitch",
	OpFlashHook:          "FlashHook",
	OpEnableGainControl:  "EnableGainControl",
	OpDisableGainControl: "DisableGainControl",
	OpDialPhone:          "DialPhone",
	OpSetInputGain:       "SetInputGain",
	OpSetOutputGain:      "SetOutputGain",
	OpQueryInputGain:     "QueryInputGain",
	OpQueryOutputGain:    "QueryOutputGain",
	OpEnableInput:        "EnableInput",
	OpEnableOutput:       "EnableOutput",
	OpDisableInput:       "DisableInput",
	OpDisableOutput:      "DisableOutput",
	OpSetAccessControl:   "SetAccessControl",
	OpChangeHosts:        "ChangeHosts",
	OpListHosts:          "ListHosts",
	OpInternAtom:         "InternAtom",
	OpGetAtomName:        "GetAtomName",
	OpChangeProperty:     "ChangeProperty",
	OpDeleteProperty:     "DeleteProperty",
	OpGetProperty:        "GetProperty",
	OpListProperties:     "ListProperties",
	OpNoOperation:        "NoOperation",
	OpSyncConnection:     "SyncConnection",
	OpQueryExtension:     "QueryExtension",
	OpListExtensions:     "ListExtensions",
	OpKillClient:         "KillClient",
	OpSubscribe:          "Subscribe",
	OpUnsubscribe:        "Unsubscribe",
}

// Error codes carried in error messages.
const (
	ErrRequest        = 1  // bad opcode
	ErrValue          = 2  // parameter out of range
	ErrDevice         = 3  // no such audio device
	ErrAC             = 4  // no such audio context
	ErrAtom           = 5  // no such atom
	ErrAccess         = 6  // access control violation
	ErrLength         = 7  // request length wrong
	ErrMatch          = 8  // parameter mismatch (e.g. telephony op on non-phone)
	ErrAlloc          = 9  // server out of resources
	ErrImplementation = 10 // unimplemented request
	ErrOverload       = 11 // client evicted: send queue over budget or write deadline missed
	ErrDrain          = 12 // server draining: graceful shutdown in progress
)

// IsGoodbye reports whether an error code is a connection-scoped goodbye:
// the server announcing that it is about to close the transport, rather
// than a per-request failure. Both end the session.
func IsGoodbye(code uint8) bool {
	return code == ErrOverload || code == ErrDrain
}

// RouteAuthName marks a setup request whose AuthData carries a routing
// key for a fleet router (cmd/arouter): the router hashes the key onto
// its backend directory to place the session. Backends ignore the auth
// fields, so a routed setup forwards to any afd unchanged.
const RouteAuthName = "af-route"

// RouteDirectAuthName is RouteAuthName from a client that dials its own
// transport and so can follow a setup redirect: a router may answer it
// with the owning backend's address (SetupReply.RedirectAddr) instead of
// proxying the session.
const RouteDirectAuthName = "af-route-direct"

// ErrorName maps an error code to a descriptive string (AFGetErrorText).
var ErrorName = map[uint8]string{
	ErrRequest:        "BadRequest: bad request code",
	ErrValue:          "BadValue: integer parameter out of range",
	ErrDevice:         "BadDevice: no such audio device",
	ErrAC:             "BadAC: no such audio context",
	ErrAtom:           "BadAtom: no such atom",
	ErrAccess:         "BadAccess: access control violation",
	ErrLength:         "BadLength: request length incorrect",
	ErrMatch:          "BadMatch: parameter mismatch",
	ErrAlloc:          "BadAlloc: insufficient resources",
	ErrImplementation: "BadImplementation: server does not implement request",
	ErrOverload:       "Overload: client evicted, send queue over budget",
	ErrDrain:          "Drain: server shutting down",
}

// Server-to-client message type bytes.
const (
	MsgError = 0
	MsgReply = 1
	// MsgBroadcast heads an unsolicited broadcast-data message (a chunk
	// of a subscribed channel's audio). Chosen above the event code range
	// so pre-extension readers never see it.
	MsgBroadcast = 7
)

// Event codes. "Only five event types are currently defined: four for
// telephone control and one for interclient communications."
const (
	EventPhoneRing       = 2
	EventPhoneDTMF       = 3
	EventPhoneLoop       = 4
	EventPhoneHookSwitch = 5
	EventPropertyChange  = 6
)

// Event selection mask bits (SelectEvents).
const (
	MaskPhoneRing       = 1 << 0
	MaskPhoneDTMF       = 1 << 1
	MaskPhoneLoop       = 1 << 2
	MaskPhoneHookSwitch = 1 << 3
	MaskPropertyChange  = 1 << 4
	MaskAllEvents       = MaskPhoneRing | MaskPhoneDTMF | MaskPhoneLoop |
		MaskPhoneHookSwitch | MaskPropertyChange
)

// EventMaskFor returns the SelectEvents mask bit for an event code.
func EventMaskFor(code uint8) uint32 {
	switch code {
	case EventPhoneRing:
		return MaskPhoneRing
	case EventPhoneDTMF:
		return MaskPhoneDTMF
	case EventPhoneLoop:
		return MaskPhoneLoop
	case EventPhoneHookSwitch:
		return MaskPhoneHookSwitch
	case EventPropertyChange:
		return MaskPropertyChange
	}
	return 0
}

// PlaySamples/RecordSamples extension-byte flags.
const (
	SampleFlagBigEndian     = 1 << 0 // sample data is big-endian
	SampleFlagSuppressReply = 1 << 1 // play: do not send the time reply
	SampleFlagNoBlock       = 1 << 2 // record: return what is available now
)

// Audio context attribute mask bits (CreateAC / ChangeACAttributes).
const (
	ACPlayGain   = 1 << 0
	ACRecordGain = 1 << 1
	ACPreemption = 1 << 2
	ACEncoding   = 1 << 3
	ACEndian     = 1 << 4
	ACChannels   = 1 << 5
)

// Hookswitch states.
const (
	HookOn  = 0 // on hook (idle / hang up)
	HookOff = 1 // off hook (answering or originating)
)

// ChangeHosts modes.
const (
	HostInsert = 0
	HostDelete = 1
)

// Host address families.
const (
	FamilyInternet  = 0       // IPv4, 4 address bytes
	FamilyInternet6 = 6       // IPv6, 16 address bytes
	FamilyLocal     = 256 - 2 // local (Unix-domain) connections
)

// ChangeProperty modes.
const (
	PropModeReplace = 0
	PropModePrepend = 1
	PropModeAppend  = 2
)

// Device types exposed in the connection setup block.
const (
	DevCodec = 0 // 8 kHz telephone-quality CODEC
	DevHiFi  = 1 // high-fidelity stereo device
	DevMono  = 2 // mono channel of a stereo device
	DevPhone = 3 // CODEC wired to a telephone line interface
)

// Built-in atoms (Table 2). Client-interned atoms are allocated above
// AtomLastPredefined.
const (
	AtomNone uint32 = 0

	AtomATOM      uint32 = 1
	AtomCARDINAL  uint32 = 2
	AtomINTEGER   uint32 = 3
	AtomSTRING    uint32 = 4
	AtomAC        uint32 = 5
	AtomDEVICE    uint32 = 6
	AtomTIME      uint32 = 7
	AtomMASK      uint32 = 8
	AtomTELEPHONE uint32 = 9
	AtomCOPYRIGHT uint32 = 10
	AtomFILENAME  uint32 = 11

	AtomSampleMU255    uint32 = 12
	AtomSampleALAW     uint32 = 13
	AtomSampleLIN16    uint32 = 14
	AtomSampleLIN32    uint32 = 15
	AtomSampleADPCM32  uint32 = 16
	AtomSampleADPCM24  uint32 = 17
	AtomSampleCELP1016 uint32 = 18
	AtomSampleCELP1015 uint32 = 19

	AtomLastNumberDialed uint32 = 20

	AtomLastPredefined uint32 = 20
)

// BuiltinAtomNames maps predefined atom ids to their names, in order.
var BuiltinAtomNames = [AtomLastPredefined + 1]string{
	AtomATOM:             "ATOM",
	AtomCARDINAL:         "CARDINAL",
	AtomINTEGER:          "INTEGER",
	AtomSTRING:           "STRING",
	AtomAC:               "AC",
	AtomDEVICE:           "DEVICE",
	AtomTIME:             "TIME",
	AtomMASK:             "MASK",
	AtomTELEPHONE:        "TELEPHONE",
	AtomCOPYRIGHT:        "COPYRIGHT",
	AtomFILENAME:         "FILENAME",
	AtomSampleMU255:      "SAMPLE_MU255",
	AtomSampleALAW:       "SAMPLE_ALAW",
	AtomSampleLIN16:      "SAMPLE_LIN16",
	AtomSampleLIN32:      "SAMPLE_LIN32",
	AtomSampleADPCM32:    "SAMPLE_ADPCM32",
	AtomSampleADPCM24:    "SAMPLE_ADPCM24",
	AtomSampleCELP1016:   "SAMPLE_CELP1016",
	AtomSampleCELP1015:   "SAMPLE_CELP1015",
	AtomLastNumberDialed: "LAST_NUMBER_DIALED",
}

// Pad4 returns n rounded up to a multiple of 4.
func Pad4(n int) int { return (n + 3) &^ 3 }
