// Package netsim injects network faults on a deterministic schedule:
// FaultConn into a stream's writes (fragmentation, resets, stalls),
// FaultPacketConn into a datagram socket (loss, duplication, reordering,
// blackouts), and Breaker into a listener (backend death). Every random
// draw comes from a seed, so a failing run reproduces exactly.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrInjectedReset is returned by a FaultConn write that hit its
// configured reset point; the peer sees the connection close mid-message.
var ErrInjectedReset = errors.New("netsim: injected connection reset")

// FaultConfig describes a deterministic fault schedule for a FaultConn.
// Everything randomized derives from Seed, so a failing test reproduces
// exactly by rerunning with the same seed.
type FaultConfig struct {
	// Seed drives all randomized behavior (fragment sizes). Two
	// FaultConns with the same config misbehave identically.
	Seed int64

	// MaxFragment, when positive, splits every Write into smaller writes
	// of random size in [1, MaxFragment], exercising the peer's
	// reassembly of messages that arrive in pieces at arbitrary packet
	// boundaries. 0 disables.
	MaxFragment int

	// ResetAfterBytes closes the connection (from the peer's point of
	// view, a mid-message reset) once that many bytes have been written.
	// The cut lands wherever the byte count falls — usually inside a
	// message. 0 disables.
	ResetAfterBytes int

	// StallEveryBytes inserts a pause of Stall before the write that
	// crosses each multiple of this many bytes, modeling a peer whose
	// socket stops draining. 1 stalls before every write: a lockstep
	// round trip then pays Stall once, an injected RTT. 0 disables.
	StallEveryBytes int
	Stall           time.Duration
}

// FaultConn wraps a connection and injects the configured faults into
// its write path. Reads pass through untouched: the interesting failure
// modes for a message protocol — partial delivery, mid-message death,
// bursty arrival — are all induced from the sending side.
type FaultConn struct {
	net.Conn
	cfg FaultConfig

	mu      sync.Mutex
	rng     *rand.Rand
	written int
	reset   bool
}

// NewFaultConn wraps inner with deterministic fault injection.
func NewFaultConn(inner net.Conn, cfg FaultConfig) *FaultConn {
	return &FaultConn{
		Conn: inner,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Write delivers b through the fault schedule: possibly in fragments,
// possibly stalling, and cutting the connection at the configured reset
// point — which lands mid-message whenever the boundary falls inside b.
func (c *FaultConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reset {
		return 0, ErrInjectedReset
	}
	sent := 0
	for sent < len(b) {
		n := len(b) - sent
		if c.cfg.MaxFragment > 0 {
			if f := 1 + c.rng.Intn(c.cfg.MaxFragment); f < n {
				n = f
			}
		}
		if r := c.cfg.ResetAfterBytes; r > 0 && c.written+n >= r {
			// Deliver exactly up to the reset point, then sever.
			n = r - c.written
			if n > 0 {
				if m, err := c.Conn.Write(b[sent : sent+n]); err != nil {
					return sent + m, err
				}
				sent += n
				c.written += n
			}
			c.reset = true
			c.Conn.Close() //nolint:errcheck — the reset is the point
			return sent, fmt.Errorf("after %d bytes: %w", c.written, ErrInjectedReset)
		}
		if s := c.cfg.StallEveryBytes; s > 0 && c.cfg.Stall > 0 {
			if c.written/s != (c.written+n)/s {
				time.Sleep(c.cfg.Stall)
			}
		}
		m, err := c.Conn.Write(b[sent : sent+n])
		sent += m
		c.written += m
		if err != nil {
			return sent, err
		}
	}
	return sent, nil
}
