package proto

import "fmt"

// Request bodies. The client library appends requests to a Writer with
// the Append* helpers; the server parses bodies with the Decode* helpers,
// whose Reader is positioned just after the 4-byte request header. The
// extension byte of each request header carries per-request flags and is
// handled at the framing layer.

// ACAttributes is the audio-context attribute block used by CreateAC and
// ChangeACAttributes. The mask selects which fields are meaningful.
type ACAttributes struct {
	PlayGain int16 // play gain in dB, applied before mixing
	RecGain  int16 // record gain in dB (applied on the record path)
	Preempt  uint8 // nonzero: play requests overwrite instead of mix
	Endian   uint8 // default sample-data byte order: 0 little, 1 big
	Type     uint8 // sample encoding (sampleconv.Encoding)
	Channels uint8 // sample channels
}

func (a *ACAttributes) encode(w *Writer) {
	w.I16(a.PlayGain)
	w.I16(a.RecGain)
	w.U8(a.Preempt)
	w.U8(a.Endian)
	w.U8(a.Type)
	w.U8(a.Channels)
}

func (a *ACAttributes) decode(r *Reader) {
	a.PlayGain = r.I16()
	a.RecGain = r.I16()
	a.Preempt = r.U8()
	a.Endian = r.U8()
	a.Type = r.U8()
	a.Channels = r.U8()
}

// --- SelectEvents ---

// SelectEventsReq selects which events the client wants from a device.
type SelectEventsReq struct {
	Device uint32
	Mask   uint32
}

// AppendSelectEvents appends a SelectEvents request.
func AppendSelectEvents(w *Writer, q SelectEventsReq) error {
	off := w.BeginRequest(OpSelectEvents, 0)
	w.U32(q.Device)
	w.U32(q.Mask)
	return w.EndRequest(off)
}

// DecodeSelectEvents parses a SelectEvents body.
func DecodeSelectEvents(r *Reader) (q SelectEventsReq) {
	q.Device = r.U32()
	q.Mask = r.U32()
	return
}

// --- CreateAC / ChangeACAttributes / FreeAC ---

// CreateACReq creates an audio context. The client allocates the AC id
// from its private counter; ids are scoped to the connection.
type CreateACReq struct {
	AC     uint32
	Device uint32
	Mask   uint32
	Attrs  ACAttributes
}

// AppendCreateAC appends a CreateAC request.
func AppendCreateAC(w *Writer, q CreateACReq) error {
	off := w.BeginRequest(OpCreateAC, 0)
	w.U32(q.AC)
	w.U32(q.Device)
	w.U32(q.Mask)
	q.Attrs.encode(w)
	return w.EndRequest(off)
}

// DecodeCreateAC parses a CreateAC body.
func DecodeCreateAC(r *Reader) (q CreateACReq) {
	q.AC = r.U32()
	q.Device = r.U32()
	q.Mask = r.U32()
	q.Attrs.decode(r)
	return
}

// ChangeACReq changes attributes of an existing audio context.
type ChangeACReq struct {
	AC    uint32
	Mask  uint32
	Attrs ACAttributes
}

// AppendChangeAC appends a ChangeACAttributes request.
func AppendChangeAC(w *Writer, q ChangeACReq) error {
	off := w.BeginRequest(OpChangeACAttributes, 0)
	w.U32(q.AC)
	w.U32(q.Mask)
	q.Attrs.encode(w)
	return w.EndRequest(off)
}

// DecodeChangeAC parses a ChangeACAttributes body.
func DecodeChangeAC(r *Reader) (q ChangeACReq) {
	q.AC = r.U32()
	q.Mask = r.U32()
	q.Attrs.decode(r)
	return
}

// AppendFreeAC appends a FreeAC request.
func AppendFreeAC(w *Writer, ac uint32) error {
	off := w.BeginRequest(OpFreeAC, 0)
	w.U32(ac)
	return w.EndRequest(off)
}

// --- Subscribe / Unsubscribe (broadcast-channel extension) ---

// AppendSubscribe appends a Subscribe request: the audio context joins
// its device's broadcast channel and starts receiving BroadcastData
// messages in the context's encoding. The reply Time is the device time
// of the subscription's first chunk.
func AppendSubscribe(w *Writer, ac uint32) error {
	off := w.BeginRequest(OpSubscribe, 0)
	w.U32(ac)
	return w.EndRequest(off)
}

// AppendUnsubscribe appends an Unsubscribe request for an audio context.
func AppendUnsubscribe(w *Writer, ac uint32) error {
	off := w.BeginRequest(OpUnsubscribe, 0)
	w.U32(ac)
	return w.EndRequest(off)
}

// --- PlaySamples / RecordSamples ---

// PlaySamplesReq plays sample data at a device time. Flags travel in the
// extension byte: SampleFlagBigEndian describes Data's byte order,
// SampleFlagSuppressReply asks the server not to send the usual time reply
// (used for all but the last chunk of a long play).
type PlaySamplesReq struct {
	AC    uint32
	Time  uint32
	Flags uint8
	Data  []byte
}

// AppendPlaySamples appends a PlaySamples request.
func AppendPlaySamples(w *Writer, q PlaySamplesReq) error {
	off := w.BeginRequest(OpPlaySamples, q.Flags)
	w.U32(q.AC)
	w.U32(q.Time)
	w.U32(uint32(len(q.Data)))
	w.Bytes(q.Data)
	return w.EndRequest(off)
}

// PlayHeaderBytes is the wire size of a PlaySamples request up to its
// sample payload: the 4-byte request header plus AC, Time, and NBytes.
const PlayHeaderBytes = 16

// AppendPlaySamplesHeader appends only the header of a PlaySamples
// request carrying n payload bytes (q.Data is ignored). It is the
// scatter-gather half of AppendPlaySamples: the caller ships the header,
// its n sample bytes, and Pad4(n)-n zero bytes as separate slices of one
// vectored write, so the payload is never copied through the request
// buffer. Nothing is appended on error.
func AppendPlaySamplesHeader(w *Writer, q PlaySamplesReq, n int) error {
	total := PlayHeaderBytes + Pad4(n)
	if n < 0 || total > MaxRequestBytes {
		return fmt.Errorf("proto: request length %d exceeds maximum %d", total, MaxRequestBytes)
	}
	w.U8(OpPlaySamples)
	w.U8(q.Flags)
	w.U16(uint16(total / 4))
	w.U32(q.AC)
	w.U32(q.Time)
	w.U32(uint32(n))
	return nil
}

// DecodePlaySamples parses a PlaySamples body. Data aliases the request
// buffer.
func DecodePlaySamples(r *Reader, flags uint8) (q PlaySamplesReq) {
	q.Flags = flags
	if b := r.BytesRef(12); b != nil { // three words, one length check
		big := bigEndian(r.Order)
		q.AC, q.Time = get32(b, big), get32(b[4:], big)
		q.Data = r.BytesRef(int(get32(b[8:], big)))
	}
	return
}

// RecordSamplesReq records NBytes of sample data starting at a device
// time. SampleFlagNoBlock in the extension byte selects the non-blocking
// variant; SampleFlagBigEndian requests big-endian reply data.
type RecordSamplesReq struct {
	AC     uint32
	Time   uint32
	NBytes uint32
	Flags  uint8
}

// AppendRecordSamples appends a RecordSamples request.
func AppendRecordSamples(w *Writer, q RecordSamplesReq) error {
	off := w.BeginRequest(OpRecordSamples, q.Flags)
	w.U32(q.AC)
	w.U32(q.Time)
	w.U32(q.NBytes)
	return w.EndRequest(off)
}

// DecodeRecordSamples parses a RecordSamples body.
func DecodeRecordSamples(r *Reader, flags uint8) (q RecordSamplesReq) {
	q.Flags = flags
	if b := r.BytesRef(12); b != nil { // three words, one length check
		big := bigEndian(r.Order)
		q.AC, q.Time, q.NBytes = get32(b, big), get32(b[4:], big), get32(b[8:], big)
	}
	return
}

// --- Simple device requests ---

// AppendDeviceReq appends a request whose body is a single device number:
// GetTime, QueryPhone, DisablePassThrough, ListProperties.
func AppendDeviceReq(w *Writer, op uint8, device uint32) error {
	off := w.BeginRequest(op, 0)
	w.U32(device)
	return w.EndRequest(off)
}

// PassThroughReq connects the inputs and outputs of two audio devices
// (the LoFi CODEC pass-through feature).
type PassThroughReq struct {
	Device uint32
	Other  uint32
}

// AppendEnablePassThrough appends an EnablePassThrough request.
func AppendEnablePassThrough(w *Writer, q PassThroughReq) error {
	off := w.BeginRequest(OpEnablePassThrough, 0)
	w.U32(q.Device)
	w.U32(q.Other)
	return w.EndRequest(off)
}

// DecodePassThrough parses an EnablePassThrough body.
func DecodePassThrough(r *Reader) (q PassThroughReq) {
	q.Device = r.U32()
	q.Other = r.U32()
	return
}

// --- Telephony ---

// HookSwitchReq sets the hookswitch state of a telephone device.
type HookSwitchReq struct {
	Device uint32
	State  uint8 // HookOn or HookOff
}

// AppendHookSwitch appends a HookSwitch request.
func AppendHookSwitch(w *Writer, q HookSwitchReq) error {
	off := w.BeginRequest(OpHookSwitch, q.State)
	w.U32(q.Device)
	return w.EndRequest(off)
}

// FlashHookReq flashes the hookswitch for a duration in milliseconds.
type FlashHookReq struct {
	Device     uint32
	DurationMs uint32
}

// AppendFlashHook appends a FlashHook request.
func AppendFlashHook(w *Writer, q FlashHookReq) error {
	off := w.BeginRequest(OpFlashHook, 0)
	w.U32(q.Device)
	w.U32(q.DurationMs)
	return w.EndRequest(off)
}

// DecodeFlashHook parses a FlashHook body.
func DecodeFlashHook(r *Reader) (q FlashHookReq) {
	q.Device = r.U32()
	q.DurationMs = r.U32()
	return
}

// --- Gain and I/O control ---

// GainReq sets a device input or output gain in dB.
type GainReq struct {
	Device uint32
	Gain   int32
}

// AppendGainReq appends a SetInputGain or SetOutputGain request.
func AppendGainReq(w *Writer, op uint8, q GainReq) error {
	off := w.BeginRequest(op, 0)
	w.U32(q.Device)
	w.I32(q.Gain)
	return w.EndRequest(off)
}

// DecodeGainReq parses a gain body.
func DecodeGainReq(r *Reader) (q GainReq) {
	q.Device = r.U32()
	q.Gain = r.I32()
	return
}

// DeviceMaskReq enables or disables inputs or outputs by mask.
type DeviceMaskReq struct {
	Device uint32
	Mask   uint32
}

// AppendDeviceMaskReq appends an Enable/DisableInput/Output request.
func AppendDeviceMaskReq(w *Writer, op uint8, q DeviceMaskReq) error {
	off := w.BeginRequest(op, 0)
	w.U32(q.Device)
	w.U32(q.Mask)
	return w.EndRequest(off)
}

// DecodeDeviceMaskReq parses an input/output mask body.
func DecodeDeviceMaskReq(r *Reader) (q DeviceMaskReq) {
	q.Device = r.U32()
	q.Mask = r.U32()
	return
}

// --- Access control ---

// AppendSetAccessControl appends a SetAccessControl request; enable rides
// in the extension byte.
func AppendSetAccessControl(w *Writer, enable bool) error {
	ext := uint8(0)
	if enable {
		ext = 1
	}
	off := w.BeginRequest(OpSetAccessControl, ext)
	return w.EndRequest(off)
}

// HostEntry is one entry in the host access list.
type HostEntry struct {
	Family uint16 // FamilyInternet, FamilyInternet6, FamilyLocal
	Addr   []byte
}

// ChangeHostsReq adds or removes a host from the access list; the mode
// (HostInsert or HostDelete) rides in the extension byte.
type ChangeHostsReq struct {
	Mode uint8
	Host HostEntry
}

// AppendChangeHosts appends a ChangeHosts request.
func AppendChangeHosts(w *Writer, q ChangeHostsReq) error {
	off := w.BeginRequest(OpChangeHosts, q.Mode)
	w.U16(q.Host.Family)
	w.U16(uint16(len(q.Host.Addr)))
	w.Bytes(q.Host.Addr)
	return w.EndRequest(off)
}

// DecodeChangeHosts parses a ChangeHosts body.
func DecodeChangeHosts(r *Reader, mode uint8) (q ChangeHostsReq) {
	q.Mode = mode
	q.Host.Family = r.U16()
	n := int(r.U16())
	q.Host.Addr = append([]byte(nil), r.BytesRef(n)...)
	return
}

// EncodeHostList serializes a host list into a ListHosts reply's extra
// data.
func EncodeHostList(w *Writer, hosts []HostEntry) {
	for _, h := range hosts {
		w.U16(h.Family)
		w.U16(uint16(len(h.Addr)))
		w.Bytes(h.Addr)
		w.Pad()
	}
}

// DecodeHostList parses n host entries from a ListHosts reply. n is the
// peer's word: it reserves no more entries than the body can hold (an
// entry is at least 4 bytes) and stops at the first short read, which
// it leaves in r.Err.
func DecodeHostList(r *Reader, n uint32) []HostEntry {
	hosts := make([]HostEntry, 0, min(n, uint32(len(r.Buf)-r.Pos)/4))
	for range n {
		var h HostEntry
		h.Family = r.U16()
		alen := int(r.U16())
		h.Addr = append([]byte(nil), r.BytesRef(alen)...)
		r.SkipPad()
		if r.Err != nil {
			break
		}
		hosts = append(hosts, h)
	}
	return hosts
}

// --- Atoms and properties ---

// InternAtomReq interns a string, allocating a unique id. OnlyIfExists
// rides in the extension byte.
type InternAtomReq struct {
	OnlyIfExists bool
	Name         string
}

// AppendInternAtom appends an InternAtom request.
func AppendInternAtom(w *Writer, q InternAtomReq) error {
	ext := uint8(0)
	if q.OnlyIfExists {
		ext = 1
	}
	off := w.BeginRequest(OpInternAtom, ext)
	w.U16(uint16(len(q.Name)))
	w.Skip(2)
	w.String4(q.Name)
	return w.EndRequest(off)
}

// DecodeInternAtom parses an InternAtom body.
func DecodeInternAtom(r *Reader, ext uint8) (q InternAtomReq) {
	q.OnlyIfExists = ext != 0
	n := int(r.U16())
	r.Skip(2)
	q.Name = r.String4(n)
	return
}

// AppendGetAtomName appends a GetAtomName request.
func AppendGetAtomName(w *Writer, atom uint32) error {
	off := w.BeginRequest(OpGetAtomName, 0)
	w.U32(atom)
	return w.EndRequest(off)
}

// ChangePropertyReq stores named, typed data on a device.
type ChangePropertyReq struct {
	Device   uint32
	Property uint32 // atom
	Type     uint32 // atom
	Format   uint8  // 8, 16, or 32 bits per item
	Mode     uint8  // PropModeReplace/Prepend/Append
	Data     []byte
}

// AppendChangeProperty appends a ChangeProperty request.
func AppendChangeProperty(w *Writer, q ChangePropertyReq) error {
	off := w.BeginRequest(OpChangeProperty, q.Mode)
	w.U32(q.Device)
	w.U32(q.Property)
	w.U32(q.Type)
	w.U8(q.Format)
	w.Skip(3)
	w.U32(uint32(len(q.Data)))
	w.Bytes(q.Data)
	return w.EndRequest(off)
}

// DecodeChangeProperty parses a ChangeProperty body. Data aliases the
// request buffer.
func DecodeChangeProperty(r *Reader, mode uint8) (q ChangePropertyReq) {
	q.Mode = mode
	q.Device = r.U32()
	q.Property = r.U32()
	q.Type = r.U32()
	q.Format = r.U8()
	r.Skip(3)
	n := int(r.U32())
	q.Data = r.BytesRef(n)
	return
}

// DeletePropertyReq removes a property from a device.
type DeletePropertyReq struct {
	Device   uint32
	Property uint32
}

// AppendDeleteProperty appends a DeleteProperty request.
func AppendDeleteProperty(w *Writer, q DeletePropertyReq) error {
	off := w.BeginRequest(OpDeleteProperty, 0)
	w.U32(q.Device)
	w.U32(q.Property)
	return w.EndRequest(off)
}

// DecodeDeleteProperty parses a DeleteProperty body.
func DecodeDeleteProperty(r *Reader) (q DeletePropertyReq) {
	q.Device = r.U32()
	q.Property = r.U32()
	return
}

// GetPropertyReq retrieves a property; with Delete set the property is
// removed after a successful full read, as in X.
type GetPropertyReq struct {
	Device   uint32
	Property uint32
	Type     uint32 // AtomNone matches any type
	Delete   bool
}

// AppendGetProperty appends a GetProperty request.
func AppendGetProperty(w *Writer, q GetPropertyReq) error {
	ext := uint8(0)
	if q.Delete {
		ext = 1
	}
	off := w.BeginRequest(OpGetProperty, ext)
	w.U32(q.Device)
	w.U32(q.Property)
	w.U32(q.Type)
	return w.EndRequest(off)
}

// DecodeGetProperty parses a GetProperty body.
func DecodeGetProperty(r *Reader, ext uint8) (q GetPropertyReq) {
	q.Delete = ext != 0
	q.Device = r.U32()
	q.Property = r.U32()
	q.Type = r.U32()
	return
}

// --- Housekeeping ---

// AppendEmptyReq appends a request with no body: NoOperation,
// SyncConnection, ListHosts, ListExtensions, DisableGainControl, etc.
func AppendEmptyReq(w *Writer, op, ext uint8) error {
	off := w.BeginRequest(op, ext)
	return w.EndRequest(off)
}

// QueryExtensionReq asks whether a named extension is present.
type QueryExtensionReq struct {
	Name string
}

// AppendQueryExtension appends a QueryExtension request.
func AppendQueryExtension(w *Writer, q QueryExtensionReq) error {
	off := w.BeginRequest(OpQueryExtension, 0)
	w.U16(uint16(len(q.Name)))
	w.Skip(2)
	w.String4(q.Name)
	return w.EndRequest(off)
}

// DecodeQueryExtension parses a QueryExtension body.
func DecodeQueryExtension(r *Reader) (q QueryExtensionReq) {
	n := int(r.U16())
	r.Skip(2)
	q.Name = r.String4(n)
	return
}
