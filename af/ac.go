package af

import (
	"fmt"

	"audiofile/internal/proto"
)

// ACAttributes is the client-side audio context attribute record
// (AFSetACAttributes). Which fields matter is selected by a mask.
type ACAttributes struct {
	PlayGain int  // dB, applied before mixing
	RecGain  int  // dB, applied on the record path
	Preempt  bool // play requests overwrite rather than mix
	// BigEndian declares that this context's sample data is big-endian on
	// the wire; the default is little-endian.
	BigEndian bool
	Type      Encoding // sample encoding
	Channels  int      // samples per frame
}

// Attribute mask bits for CreateAC and ChangeACAttributes.
const (
	ACPlayGain   = proto.ACPlayGain
	ACRecordGain = proto.ACRecordGain
	ACPreemption = proto.ACPreemption
	ACEncoding   = proto.ACEncoding
	ACEndian     = proto.ACEndian
	ACChannels   = proto.ACChannels
)

// AC is an audio context (§5.6): the binding of a device with play/record
// parameters under which samples are played and recorded.
type AC struct {
	conn *Conn
	id   uint32

	// Device is the audio device this context plays and records on.
	Device *Device

	// Attributes mirrors the server-side context, maintained locally.
	Attributes ACAttributes

	// sub is the context's live broadcast subscription, if any
	// (subscribe.go). Guarded by conn.mu.
	sub *Subscription

	freed bool
}

func wireAttrs(a ACAttributes) proto.ACAttributes {
	endian := uint8(0)
	if a.BigEndian {
		endian = 1
	}
	preempt := uint8(0)
	if a.Preempt {
		preempt = 1
	}
	return proto.ACAttributes{
		PlayGain: int16(a.PlayGain),
		RecGain:  int16(a.RecGain),
		Preempt:  preempt,
		Endian:   endian,
		Type:     uint8(a.Type),
		Channels: uint8(a.Channels),
	}
}

// CreateAC creates an audio context on a device (AFCreateAC). The masked
// attribute fields override the device defaults. CreateAC is
// asynchronous; errors surface via the error handler or the next
// synchronous call.
func (c *Conn) CreateAC(device int, mask uint32, attrs ACAttributes) (*AC, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if device < 0 || device >= len(c.devices) {
		return nil, fmt.Errorf("af: no device %d", device)
	}
	dev := &c.devices[device]
	ac := &AC{
		conn:   c,
		id:     c.nextACID,
		Device: dev,
		Attributes: ACAttributes{
			Type:     dev.PlayBufType,
			Channels: dev.PlayNchannels,
		},
	}
	c.nextACID++
	applyMask(&ac.Attributes, mask, attrs)
	err := c.oneWay(proto.AppendCreateAC(&c.w, proto.CreateACReq{
		AC:     ac.id,
		Device: uint32(device),
		Mask:   mask,
		Attrs:  wireAttrs(attrs),
	}))
	if err != nil {
		return nil, err
	}
	c.acs[ac.id] = ac
	return ac, nil
}

func applyMask(dst *ACAttributes, mask uint32, src ACAttributes) {
	if mask&ACPlayGain != 0 {
		dst.PlayGain = src.PlayGain
	}
	if mask&ACRecordGain != 0 {
		dst.RecGain = src.RecGain
	}
	if mask&ACPreemption != 0 {
		dst.Preempt = src.Preempt
	}
	if mask&ACEncoding != 0 {
		dst.Type = src.Type
	}
	if mask&ACEndian != 0 {
		dst.BigEndian = src.BigEndian
	}
	if mask&ACChannels != 0 {
		dst.Channels = src.Channels
	}
}

// ChangeAttributes modifies masked fields of the context
// (AFChangeACAttributes).
func (ac *AC) ChangeAttributes(mask uint32, attrs ACAttributes) error {
	c := ac.conn
	c.mu.Lock()
	defer c.mu.Unlock()
	applyMask(&ac.Attributes, mask, attrs)
	return c.oneWay(proto.AppendChangeAC(&c.w, proto.ChangeACReq{
		AC:    ac.id,
		Mask:  mask,
		Attrs: wireAttrs(attrs),
	}))
}

// Free releases the context's server resources (AFFreeAC).
func (ac *AC) Free() error {
	c := ac.conn
	c.mu.Lock()
	defer c.mu.Unlock()
	if ac.freed {
		return nil
	}
	ac.freed = true
	delete(c.acs, ac.id)
	if ac.sub != nil {
		// The server unsubscribes as part of freeing the context; drop the
		// local routing so in-flight chunks are discarded, not misdelivered.
		ac.sub.detachLocked()
	}
	return c.oneWay(proto.AppendFreeAC(&c.w, ac.id))
}

// chunkBytes returns the wire size of one request chunk under this
// context: the most whole sample units (frames, or packed ADPCM bytes
// holding two frames) that fit in proto.ChunkBytes, or one unit when a
// unit is larger. A context the server refuses (no channels) counts a
// byte, so its requests still go out and draw the server's error.
func (ac *AC) chunkBytes() int {
	ub := max(ac.Attributes.Type.BytesPerUnit()*ac.Attributes.Channels, 1)
	return max(proto.ChunkBytes/ub, 1) * ub
}

// sampleFlags returns the per-request endian flag for this context.
func (ac *AC) sampleFlags() uint8 {
	if ac.Attributes.BigEndian {
		return proto.SampleFlagBigEndian
	}
	return 0
}

// playVectorBytes is the payload size at which PlaySamples switches to
// the scatter-gather path: below it, copying into the request buffer is
// cheaper than assembling an iovec list. With every play vectored, the
// benchmark's loopback workload (160-byte plays; 10 pairs of 18 s runs)
// read cycle_p50_us 7.93 → 8.02, cpu_us_per_cycle 8.08 → 8.15 and
// cycles_per_s 130.7k → 129.9k, worse in 9, 9 and 8 pairs of 10.
const playVectorBytes = 2048

// padZero supplies the 32-bit-boundary pad for unaligned payloads.
var padZero [4]byte

// PlaySamples plays a block of samples starting at the given device time
// (AFPlaySamples). Data scheduled for the past is discarded by the
// server; data in the near future is buffered; data beyond the server's
// buffer blocks until it fits. Long blocks are sent in 8 KiB chunks with
// the reply suppressed on all but the last, so the call costs one round
// trip. Large blocks go to the kernel scatter-gather, straight from the
// caller's slice. It returns the current device time.
func (ac *AC) PlaySamples(t ATime, data []byte) (now ATime, err error) {
	err = ac.conn.recovering(false, func() (err error) {
		now, err = ac.playSamplesLocked(t, data)
		return err
	})
	return now, err
}

func (ac *AC) playSamplesLocked(t ATime, data []byte) (ATime, error) {
	if len(data) >= playVectorBytes {
		return ac.playVectored(t, data)
	}
	// Below playVectorBytes the play is one chunk: a chunk holds at least
	// 4 KiB of whole frames, or one frame larger than that.
	c := ac.conn
	rep, err := c.roundTrip(proto.AppendPlaySamples(&c.w, proto.PlaySamplesReq{
		AC:    ac.id,
		Time:  uint32(t),
		Flags: ac.sampleFlags(),
		Data:  data,
	}))
	if err != nil {
		return 0, err
	}
	return ATime(rep.Time), nil
}

// playVectored ships a large play request scatter-gather: the chunk
// headers are marshaled into the request buffer, but the sample data
// reaches the kernel as iovecs pointing straight at the caller's slice —
// it is never copied into the library. One vectored write, the reply
// wait's own (Conn.exchange), carries any previously queued requests,
// every chunk header, and every chunk body.
func (ac *AC) playVectored(t ATime, data []byte) (ATime, error) {
	c := ac.conn
	chunk := ac.chunkBytes()
	seq0 := c.sentSeq
	base := len(c.w.Buf)
	c.hdrEnds = c.hdrEnds[:0]
	for off := 0; off < len(data); {
		n := len(data) - off
		last := n <= chunk
		if !last {
			n = chunk
		}
		flags := ac.sampleFlags()
		if !last {
			flags |= proto.SampleFlagSuppressReply
		}
		err := proto.AppendPlaySamplesHeader(&c.w, proto.PlaySamplesReq{
			AC:    ac.id,
			Time:  uint32(t),
			Flags: flags,
		}, n)
		if err != nil {
			c.w.Buf = c.w.Buf[:base]
			c.sentSeq = seq0
			return 0, err
		}
		c.sentSeq++
		c.hdrEnds = append(c.hdrEnds, len(c.w.Buf))
		t = t.Add(ac.Attributes.Type.Frames(n, ac.Attributes.Channels))
		off += n
	}
	lastSeq := c.sentSeq
	// Build the iovec list only after every header is in place: appending
	// may grow (and so move) the request buffer, which would invalidate
	// slices taken earlier.
	vec := c.pvec[:0]
	prev := 0
	for i, he := range c.hdrEnds {
		vec = append(vec, c.w.Buf[prev:he])
		prev = he
		off := i * chunk
		n := len(data) - off
		if n > chunk {
			n = chunk
		}
		vec = append(vec, data[off:off+n])
		if pad := proto.Pad4(n) - n; pad > 0 {
			vec = append(vec, padZero[:pad])
		}
	}
	c.pvec = vec
	rep, err := c.awaitReply(lastSeq, nil)
	if err != nil {
		return 0, err
	}
	return ATime(rep.Time), nil
}

// RecordSamples records len(buf) bytes of samples beginning at the given
// device time (AFRecordSamples). With block true the call returns only
// once all requested data has been captured; otherwise it returns
// whatever is immediately available. It returns the current device time
// and the number of bytes stored into buf.
//
// Long requests are chunked at 8 KiB, as in the C library, but the
// chunks are pipelined: every request is issued up front in one write,
// then the replies are consumed in order, each payload copied straight
// into buf. A large record costs one round trip instead of one per chunk.
// The sample data is copied once in the library: the kernel puts the
// replies in the connection's read buffer, borrowed from a pool only
// while reply bytes are in flight, and each payload is copied from there
// into buf, never through the scratch message.
//
// Because payloads are copied whole, a short (non-blocking) chunk's
// 32-bit-boundary pad lands in buf inside the requested chunk region,
// just past the returned byte count.
func (ac *AC) RecordSamples(t ATime, buf []byte, block bool) (now ATime, total int, err error) {
	err = ac.conn.recovering(false, func() (err error) {
		now, total, err = ac.recordSamplesLocked(t, buf, block)
		return err
	})
	return now, total, err
}

func (ac *AC) recordSamplesLocked(t ATime, buf []byte, block bool) (ATime, int, error) {
	c := ac.conn
	chunk := ac.chunkBytes()
	flags := ac.sampleFlags()
	if !block {
		flags |= proto.SampleFlagNoBlock
	}
	seq0 := c.sentSeq
	nchunks := 0
	for off := 0; off < len(buf); off += chunk {
		n := len(buf) - off
		if n > chunk {
			n = chunk
		}
		err := proto.AppendRecordSamples(&c.w, proto.RecordSamplesReq{
			AC:     ac.id,
			Time:   uint32(t.Add(ac.Attributes.Type.Frames(off, ac.Attributes.Channels))),
			NBytes: uint32(n),
			Flags:  flags,
		})
		if err != nil {
			return 0, 0, err
		}
		c.sentSeq++
		nchunks++
	}
	total := 0
	now := ATime(0)
	short := false // a chunk came back partial: discard the rest
	var firstErr error
	for i := 0; i < nchunks; i++ {
		off := i * chunk
		n := len(buf) - off
		if n > chunk {
			n = chunk
		}
		var dst []byte
		if !short && firstErr == nil {
			dst = buf[off : off+n]
		}
		rep, err := c.awaitReply(seq0+uint16(i)+1, dst)
		if err != nil {
			if _, ok := err.(*ProtoError); !ok {
				return now, total, err // transport failure: replies are gone
			}
			if firstErr == nil {
				firstErr = err
			}
			continue // drain the remaining pipelined replies
		}
		if short || firstErr != nil {
			continue // data past the short chunk was never asked for
		}
		got := int(min(rep.Aux, uint32(len(rep.Extra)))) // in uint32: on 32 bits, int(Aux) can be negative
		now = ATime(rep.Time)
		total += got
		if got < n {
			short = true // non-blocking record ran out of captured data
		}
	}
	return now, total, firstErr
}

// GetTime returns the current device time of the context's device
// (AFGetTime).
func (ac *AC) GetTime() (ATime, error) {
	return ac.conn.GetTime(ac.Device.Index)
}

// GetTime returns the current device time of a device (AFGetTime).
// GetTime is idempotent, so with reconnection enabled (SetReconnect) a
// transport failure is retried transparently on the new session.
func (c *Conn) GetTime(device int) (t ATime, err error) {
	err = c.recovering(true, func() (err error) {
		t, err = c.getTimeLocked(device)
		return err
	})
	return t, err
}

func (c *Conn) getTimeLocked(device int) (ATime, error) {
	rep, err := c.roundTrip(proto.AppendDeviceReq(&c.w, proto.OpGetTime, uint32(device)))
	if err != nil {
		return 0, err
	}
	return ATime(rep.Time), nil
}
