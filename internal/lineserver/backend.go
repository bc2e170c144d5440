package lineserver

import (
	"encoding/binary"
	"net"
	"sync"
	"time"

	"audiofile/internal/atime"
	"audiofile/internal/health"
	"audiofile/internal/metrics"
	"audiofile/internal/sampleconv"
)

// Backend is the workstation side of the Als server (§7.4.3): a
// core.Backend that drives a LineServer over its private UDP protocol.
// Client requests satisfied by the AudioFile server's own buffers never
// touch the network; only update-region traffic does. Play and record
// packets are never retried ("by then, it is probably too late anyway");
// register accesses are.
//
// The transport is hardened against the faults that define UDP: every
// reply is sequence-validated (stale replies to timed-out requests and
// duplicated datagrams are counted and discarded, never adopted), the
// device-time estimate is monotonic under jittered replies, and an
// internal/health Machine resynchronizes automatically when the box
// disappears and comes back: round trips are its detect, resync its heal.
type Backend struct {
	mu sync.Mutex

	conn  net.Conn // connected UDP socket
	rate  int
	seq   uint32
	cfg   Config
	erred bool // a transport failure has been recorded (see noteErr)

	// Device time estimation: "the server generates an estimate of the
	// LineServer time from the time stamp of the last LineServer packet
	// and the local server time."
	lastTime atime.ATime
	lastWhen time.Time

	// Monotonicity clamp for Time: jittered and reordered replies must
	// never make the estimate run backwards. A detected clock slip or a
	// completed resync clears monotonicValid, letting the estimate step
	// to the box's new time base (e.g. after a reboot).
	lastReturned   atime.ATime
	monotonicValid bool

	// Reply validation: seenReplies is a ring of recently received reply
	// sequence numbers, so a duplicated datagram — of the live reply or
	// of a stale one — is classified as a duplicate rather than adopted
	// or double-counted as stale.
	seenReplies [16]uint32
	seenCount   int

	recv []byte

	count  counters // stats.go
	health *health.Machine
}

// Config tunes a Backend; the zero value takes the defaults.
type Config struct {
	Timeout       time.Duration // per-packet reply timeout; zero is 100 ms
	NoExtrapolate bool          // every Time call pings the box, for manual-clock tests

	// Health tunes the self-healing machine (zero numbers keep the health
	// package's defaults; its Heal is the backend's resync). Its Log and
	// Name also record the first transport error; a nil Log is private.
	Health health.Config
}

// Dial connects to a LineServer at a UDP address.
func Dial(addr string, rate int, cfg Config) (*Backend, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 100 * time.Millisecond
	}
	if cfg.Health.Log == nil {
		cfg.Health.Log = new(metrics.Log)
	}
	b := &Backend{conn: conn, rate: rate, cfg: cfg, recv: make([]byte, HeaderBytes+MaxDataBytes+64)}
	cfg.Health.Heal = b.resync
	b.health = health.New(cfg.Health)
	// Initial time sync, under the lock: its failures may already start a
	// resync.
	b.mu.Lock()
	if rep := b.roundTrip(&Packet{Fn: FnLoopback}, 3); rep != nil {
		b.lastTime = atime.ATime(rep.Time)
		b.lastWhen = time.Now()
	}
	b.mu.Unlock()
	return b, nil
}

// Close releases the socket, which fails a resync attempt in flight at
// once, and stops the health machine. Safe to call more than once;
// operations after Close fail fast on the closed socket.
func (b *Backend) Close() {
	b.conn.Close()
	b.health.Close()
}

// resync is the health machine's heal: re-Reset the box, re-establish
// the device-time base with a loopback ping (the accepted reply refreshes
// lastTime/lastWhen inside roundTrip), and let Time step to it — the box
// may have rebooted. Single tries: the machine's backoff is the retry
// policy.
func (b *Backend) resync() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.roundTrip(&Packet{Fn: FnReset}, 1) == nil || b.roundTrip(&Packet{Fn: FnLoopback}, 1) == nil {
		return false
	}
	b.monotonicValid = false
	return true
}

// rememberReply records a reply sequence number in the seen ring.
// Must be called with b.mu held.
func (b *Backend) rememberReply(seq uint32) {
	b.seenReplies[b.seenCount%len(b.seenReplies)] = seq
	b.seenCount++
}

// replySeen reports whether seq was received recently. Must be called
// with b.mu held.
func (b *Backend) replySeen(seq uint32) bool {
	n := b.seenCount
	if n > len(b.seenReplies) {
		n = len(b.seenReplies)
	}
	for i := 0; i < n; i++ {
		if b.seenReplies[i] == seq {
			return true
		}
	}
	return false
}

// adoptTime accepts a reply's timestamp as the new estimation base,
// first checking it against the extrapolated estimate for a clock slip
// (§8.3 generalized: off by more than half a second); a slip releases the
// monotonicity clamp so Time may step to the box's new base. Must be
// called with b.mu held.
func (b *Backend) adoptTime(rep *Packet) {
	now := time.Now()
	if !b.cfg.NoExtrapolate && !b.lastWhen.IsZero() {
		expected := atime.Add(b.lastTime, int(now.Sub(b.lastWhen).Seconds()*float64(b.rate)))
		if d, slip := atime.Sub(atime.ATime(rep.Time), expected), int32(b.rate/2); d > slip || d < -slip {
			b.count.slips.Add(1)
			b.monotonicValid = false
		}
	}
	b.lastTime = atime.ATime(rep.Time)
	b.lastWhen = now
}

// roundTrip sends a request and waits for its reply, trying up to tries
// times. It returns nil when every attempt timed out. Every parseable
// reply datagram is classified exactly once — accepted, stale, or
// duplicate, whose sum Stats reports as replies; only an accepted reply
// (live sequence number and matching function code) may update the time
// estimate. Must be called with
// b.mu held (or before concurrent use).
func (b *Backend) roundTrip(req *Packet, tries int) *Packet {
	c := &b.count
	for attempt := 0; attempt < tries; attempt++ {
		b.seq++
		req.Seq = b.seq
		// Arm the reply deadline before sending: with no deadline a lost
		// reply would block the read below forever, and arming after the
		// Write leaves a window where the reply can race the deadline.
		if err := b.conn.SetReadDeadline(time.Now().Add(b.cfg.Timeout)); err != nil {
			b.noteErr(err)
			b.noteTimeout()
			return nil
		}
		if _, err := b.conn.Write(req.Marshal()); err != nil {
			b.noteErr(err)
			b.noteTimeout()
			return nil
		}
		c.requests.Add(1)
		for {
			n, err := b.conn.Read(b.recv)
			if err != nil {
				break // timeout: retry or give up
			}
			rep, err := Parse(b.recv[:n])
			if err != nil {
				c.garbage.Add(1)
				continue
			}
			switch {
			case rep.Seq == req.Seq && rep.Fn == req.Fn:
				c.accepted.Add(1)
				b.rememberReply(rep.Seq)
				b.adoptTime(rep)
				b.health.Success()
				return rep
			case b.replySeen(rep.Seq):
				// A duplicated datagram: a copy of a reply we already
				// classified (accepted or stale). Never adopted.
				c.duplicate.Add(1)
			default:
				// A straggler answering an earlier, timed-out request (or
				// a live-sequence reply with the wrong function code).
				// Its payload may be valid for that old request, but its
				// timestamp is old news: discarded, never adopted.
				c.stale.Add(1)
				b.rememberReply(rep.Seq)
			}
		}
	}
	b.noteTimeout()
	return nil
}

// noteTimeout counts a round trip that got no accepted reply and reports
// it to the health machine.
func (b *Backend) noteTimeout() {
	b.count.timeouts.Add(1)
	b.health.Failure()
}

// noteErr records the first transport failure as an event. The backend
// then degrades to its packet-loss behavior (silence, stale time
// estimates) instead of hanging or flooding the log: the box being
// unreachable is normal operation for a UDP peripheral, but a socket
// that cannot even arm a deadline is worth one event.
func (b *Backend) noteErr(err error) {
	if !b.erred {
		b.erred = true
		b.cfg.Health.Log.Record(metrics.TransportError, b.cfg.Health.Name, err.Error())
	}
}

// Time implements core.Backend: the estimated LineServer device time.
// The estimate is monotonic: stragglers, duplicated replies, and
// jittered extrapolation can never make it run backwards. Only a
// detected clock slip or a completed resync (the box legitimately has a
// new time base) lets it step.
func (b *Backend) Time() atime.ATime {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.timeEstimateLocked()
	if b.monotonicValid && atime.Before(t, b.lastReturned) {
		return b.lastReturned
	}
	b.lastReturned = t
	b.monotonicValid = true
	return t
}

// timeEstimateLocked is the raw estimate: extrapolate from the last
// accepted reply when fresh, otherwise ping the box, otherwise fall
// back to the stale base.
func (b *Backend) timeEstimateLocked() atime.ATime {
	if !b.cfg.NoExtrapolate {
		age := time.Since(b.lastWhen)
		if age < 250*time.Millisecond {
			return atime.Add(b.lastTime, int(age.Seconds()*float64(b.rate)))
		}
	}
	// Stale (or extrapolation disabled): ping the box.
	if rep := b.roundTrip(&Packet{Fn: FnLoopback}, 2); rep != nil {
		return b.lastTime
	}
	// Unreachable: fall back to the stale estimate.
	if !b.cfg.NoExtrapolate {
		return atime.Add(b.lastTime, int(time.Since(b.lastWhen).Seconds()*float64(b.rate)))
	}
	return b.lastTime
}

// WritePlay implements core.Backend: push samples into the box's play
// buffer, one MTU-sized packet at a time, no retries.
func (b *Backend) WritePlay(t atime.ATime, data []byte) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	written := 0
	for len(data) > 0 {
		n := len(data)
		if n > MaxDataBytes {
			n = MaxDataBytes
		}
		// One try only: the reply carries just the time, and a lost play
		// packet is not worth retrying.
		if b.roundTrip(&Packet{Fn: FnPlay, Time: uint32(t), Data: data[:n]}, 1) == nil {
			// Unacknowledged: the packet (or its ack) is gone. The box may
			// still have it, but for gap accounting we assume the worst.
			b.count.playLostBytes.Add(uint64(n))
		}
		written += n
		t = atime.Add(t, n)
		data = data[n:]
	}
	return written
}

// ReadRecord implements core.Backend: pull captured samples from the box.
func (b *Backend) ReadRecord(t atime.ATime, buf []byte) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	got := 0
	for got < len(buf) {
		n := len(buf) - got
		if n > MaxDataBytes {
			n = MaxDataBytes
		}
		rep := b.roundTrip(&Packet{Fn: FnRecord, Time: uint32(t), Param: uint32(n)}, 1)
		// A lost reply delivers silence for its whole stretch, no retry; a
		// short one (truncated in transit) silence-fills its tail rather
		// than leaking whatever the caller's buffer held.
		c := 0
		if rep != nil {
			c = copy(buf[got:got+n], rep.Data)
		}
		if c < n {
			sampleconv.Silence(sampleconv.MU255, buf[got+c:got+n])
			b.count.recSilenceBytes.Add(uint64(n - c))
		}
		got += n
		t = atime.Add(t, n)
	}
	return got
}

// HWFrames implements core.Backend.
func (b *Backend) HWFrames() int { return FirmwareFrames }

// ReadReg reads a CODEC register, with retries.
func (b *Backend) ReadReg(reg uint32) (uint32, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rep := b.roundTrip(&Packet{Fn: FnReadReg, Param: reg}, 3)
	if rep == nil || len(rep.Data) < 4 {
		return 0, false
	}
	return binary.BigEndian.Uint32(rep.Data), true
}

// WriteReg writes a CODEC register, with retries.
func (b *Backend) WriteReg(reg, val uint32) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	data := binary.BigEndian.AppendUint32(nil, val)
	return b.roundTrip(&Packet{Fn: FnWriteReg, Param: reg, Data: data}, 3) != nil
}
