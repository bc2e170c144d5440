package netsim

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"

	"audiofile/internal/metrics"
)

// This file is the datagram counterpart of FaultConn: packet-level fault
// injection for UDP protocols. Where FaultConn models a byte stream
// misbehaving (fragmentation, mid-message resets), FaultPacketConn
// models the faults that define datagram networks — whole packets lost,
// duplicated, delivered out of order, or wiped out in bursts — on a
// deterministic schedule derived from a seed, so a failing chaos run
// reproduces exactly.
//
// Reordering is count-based, not time-based: a reordered datagram is
// held back until ReorderSpan later datagrams have passed it, which
// keeps traces identical across machines and race-detector slowdowns.
// Burst blackouts are count-based too: out of every BlackoutEvery
// datagrams in a direction, the last BlackoutLen are dropped, modeling
// the box (or the cable) going away for a stretch.

// PacketFaultRates is one direction's fault schedule.
type PacketFaultRates struct {
	// Loss is the probability in [0, 1] a datagram is silently dropped.
	Loss float64
	// Dup is the probability a datagram is delivered twice.
	Dup float64
	// Reorder is the probability a datagram is held back until
	// ReorderSpan subsequent datagrams have passed it. A held datagram
	// that never sees enough traffic is dropped at Close (counted in
	// DroppedAtClose), like a packet lost in a queue.
	Reorder float64
	// ReorderSpan is how many later datagrams overtake a held one;
	// 0 means 2.
	ReorderSpan int
	// Burst blackout: of every BlackoutEvery datagrams, the last
	// BlackoutLen are dropped. 0 disables.
	BlackoutEvery int
	BlackoutLen   int
}

// PacketFaultConfig configures a FaultPacketConn. Ingress applies to
// datagrams arriving via ReadFrom, Egress to datagrams leaving via
// WriteTo; each direction draws from its own seeded stream, so the two
// schedules are independent but both reproducible.
type PacketFaultConfig struct {
	Seed    int64
	Ingress PacketFaultRates
	Egress  PacketFaultRates
}

// PacketDirStats is one direction's packet accounting; its law is
// PacketFaultStats.Check.
type PacketDirStats struct {
	Seen           uint64 `json:"seen"`             // datagrams entering the fault layer
	Delivered      uint64 `json:"delivered"`        // copies handed through
	Dropped        uint64 `json:"dropped"`          // random loss
	Duplicated     uint64 `json:"duplicated"`       // extra copies created
	Reordered      uint64 `json:"reordered"`        // datagrams held back
	BlackedOut     uint64 `json:"blacked_out"`      // dropped inside a burst blackout
	DroppedAtClose uint64 `json:"dropped_at_close"` // discarded at Close, or refused by the closed conn
	Held           uint64 `json:"held"`             // currently held back (gauge)
}

// PacketFaultStats is both directions' accounting.
type PacketFaultStats struct {
	Ingress PacketDirStats `json:"ingress"`
	Egress  PacketDirStats `json:"egress"`
}

// Check states the packet law of each direction: every datagram copy
// that enters the fault layer leaves it through exactly one door, settled
// once the conn is closed and no call is inside it. Live, the left side
// runs ahead by the copies a WriteTo has taken from the queue and not
// yet written: stats reads a direction under the lock its decisions
// take, and only that write counts outside it.
func (s PacketFaultStats) Check(settled bool) error {
	law := func(dir string, d PacketDirStats) error {
		return metrics.Law(dir+": seen + duplicated = delivered + dropped + blacked_out + dropped_at_close + held",
			d.Seen+d.Duplicated, d.Delivered+d.Dropped+d.BlackedOut+d.DroppedAtClose+d.Held, settled)
	}
	return errors.Join(law("ingress", s.Ingress), law("egress", s.Egress))
}

// heldPacket is a datagram held back for reordering: it becomes
// deliverable once after reaches zero.
type heldPacket struct {
	data  []byte
	addr  net.Addr
	after int
}

// faultDir is one direction's schedule state. The mutex orders decisions
// so the rng stream, the hold queue, and the counters move together;
// it is never held across a blocking inner read or write.
type faultDir struct {
	mu      sync.Mutex
	rng     *rand.Rand
	rates   PacketFaultRates
	span    int
	held    []heldPacket
	pending []heldPacket

	seen           atomic.Uint64
	delivered      atomic.Uint64
	dropped        atomic.Uint64
	duplicated     atomic.Uint64
	reordered      atomic.Uint64
	blackedOut     atomic.Uint64
	droppedAtClose atomic.Uint64
}

func newFaultDir(rates PacketFaultRates, seed int64) *faultDir {
	span := rates.ReorderSpan
	if span <= 0 {
		span = 2
	}
	return &faultDir{
		rng:   rand.New(rand.NewSource(seed)),
		rates: rates,
		span:  span,
	}
}

// admit runs one arriving datagram through the schedule, appending any
// now-deliverable packets (this one, duplicates, and previously held
// packets whose span expired) to pending. Must be called with d.mu held.
func (d *faultDir) admit(data []byte, addr net.Addr) {
	idx := d.seen.Load()
	d.seen.Add(1)
	// Every passing datagram ages the hold queue, whether or not it
	// survives: a dropped packet still "passed" the held one on the wire.
	for i := 0; i < len(d.held); {
		d.held[i].after--
		if d.held[i].after <= 0 {
			d.pending = append(d.pending, d.held[i])
			d.held = append(d.held[:i], d.held[i+1:]...)
			continue
		}
		i++
	}
	if e, l := d.rates.BlackoutEvery, d.rates.BlackoutLen; e > 0 && l > 0 &&
		int(idx%uint64(e)) >= e-l {
		d.blackedOut.Add(1)
		return
	}
	if d.rates.Loss > 0 && d.rng.Float64() < d.rates.Loss {
		d.dropped.Add(1)
		return
	}
	copies := 1
	if d.rates.Dup > 0 && d.rng.Float64() < d.rates.Dup {
		d.duplicated.Add(1)
		copies = 2
	}
	if d.rates.Reorder > 0 && d.rng.Float64() < d.rates.Reorder {
		d.reordered.Add(1)
		for i := 0; i < copies; i++ {
			d.held = append(d.held, heldPacket{data: data, addr: addr, after: d.span})
		}
		return
	}
	for i := 0; i < copies; i++ {
		d.pending = append(d.pending, heldPacket{data: data, addr: addr})
	}
}

// flushHeld discards everything still held (Close).
func (d *faultDir) flushHeld() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.droppedAtClose.Add(uint64(len(d.held) + len(d.pending)))
	d.held = nil
	d.pending = nil
}

// stats reads the direction under d.mu, which every counter but
// WriteTo's delivered holds while it moves: the live form of the law.
func (d *faultDir) stats() PacketDirStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return PacketDirStats{
		Seen:           d.seen.Load(),
		Delivered:      d.delivered.Load(),
		Dropped:        d.dropped.Load(),
		Duplicated:     d.duplicated.Load(),
		Reordered:      d.reordered.Load(),
		BlackedOut:     d.blackedOut.Load(),
		DroppedAtClose: d.droppedAtClose.Load(),
		Held:           uint64(len(d.held) + len(d.pending)),
	}
}

// FaultPacketConn wraps a net.PacketConn with the configured per-
// direction fault schedule. The lineserver firmware wraps its socket
// with one, which puts both directions of the protocol — requests
// arriving, replies leaving — through the fault layer with a single
// wrapper.
type FaultPacketConn struct {
	net.PacketConn
	in  *faultDir
	out *faultDir

	rmu  sync.Mutex // serializes ReadFrom (single consumer of pending)
	rbuf []byte

	closeOnce sync.Once
}

// NewFaultPacketConn wraps inner with deterministic packet faults.
func NewFaultPacketConn(inner net.PacketConn, cfg PacketFaultConfig) *FaultPacketConn {
	return &FaultPacketConn{
		PacketConn: inner,
		in:         newFaultDir(cfg.Ingress, cfg.Seed),
		out:        newFaultDir(cfg.Egress, cfg.Seed+1),
		rbuf:       make([]byte, 64<<10),
	}
}

// ReadFrom delivers the next surviving ingress datagram: pending packets
// (including released reorder holds and duplicate copies) first, then
// fresh reads from the inner conn pushed through the schedule. Deadlines
// set on the wrapper reach the inner conn unchanged, so a read with no
// surviving traffic still times out normally.
func (c *FaultPacketConn) ReadFrom(b []byte) (int, net.Addr, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	for {
		c.in.mu.Lock()
		if len(c.in.pending) > 0 {
			p := c.in.pending[0]
			c.in.pending = c.in.pending[1:]
			c.in.delivered.Add(1)
			c.in.mu.Unlock()
			return copy(b, p.data), p.addr, nil
		}
		c.in.mu.Unlock()
		n, addr, err := c.PacketConn.ReadFrom(c.rbuf)
		if err != nil {
			return 0, addr, err
		}
		data := append([]byte(nil), c.rbuf[:n]...)
		c.in.mu.Lock()
		c.in.admit(data, addr)
		c.in.mu.Unlock()
	}
}

// WriteTo pushes a datagram through the egress schedule. Dropped packets
// still report success — that is UDP's contract — and deliverable
// packets (this one, duplicates, released holds) are written in order.
func (c *FaultPacketConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	c.out.mu.Lock()
	data := append([]byte(nil), b...)
	c.out.admit(data, addr)
	flush := c.out.pending
	c.out.pending = nil
	c.out.mu.Unlock()
	for i, p := range flush {
		if _, err := c.PacketConn.WriteTo(p.data, p.addr); err != nil {
			// A WriteTo beside Close: the conn closed under copies already
			// taken from the queue, which flushHeld could not count.
			c.out.droppedAtClose.Add(uint64(len(flush) - i))
			return len(b), err
		}
		c.out.delivered.Add(1)
	}
	return len(b), nil
}

// Close discards held packets and closes the inner conn.
func (c *FaultPacketConn) Close() error {
	c.closeOnce.Do(func() {
		c.in.flushHeld()
		c.out.flushHeld()
	})
	return c.PacketConn.Close()
}

// Stats snapshots both directions' packet accounting.
func (c *FaultPacketConn) Stats() PacketFaultStats {
	return PacketFaultStats{Ingress: c.in.stats(), Egress: c.out.stats()}
}
