package netsim

import (
	"net"
	"sync"
)

// Breaker wraps a net.Listener so a test can kill the process behind it
// without owning a process: Kill severs every connection accepted so
// far and makes the listener refuse (accept-then-close) new ones, which
// is what a crashed-but-port-still-bound or freshly dead backend looks
// like to a dialer; Revive restores normal service. The listener itself
// stays open throughout, so the address remains stable across the
// outage — exactly the failover scenario a router health-checks for.
type Breaker struct {
	inner net.Listener

	mu    sync.Mutex
	dead  bool
	conns map[net.Conn]struct{}
}

// NewBreaker wraps l.
func NewBreaker(l net.Listener) *Breaker {
	return &Breaker{inner: l, conns: make(map[net.Conn]struct{})}
}

// Accept implements net.Listener. While killed, accepted connections are
// closed immediately (the dial "succeeds", then dies — a half-crashed
// box), so the accept loop never blocks a test.
func (b *Breaker) Accept() (net.Conn, error) {
	for {
		c, err := b.inner.Accept()
		if err != nil {
			return nil, err
		}
		b.mu.Lock()
		if b.dead {
			b.mu.Unlock()
			c.Close()
			continue
		}
		bc := &breakerConn{Conn: c, b: b}
		b.conns[bc] = struct{}{}
		b.mu.Unlock()
		return bc, nil
	}
}

// Close implements net.Listener.
func (b *Breaker) Close() error { return b.inner.Close() }

// Addr implements net.Listener.
func (b *Breaker) Addr() net.Addr { return b.inner.Addr() }

// Kill severs every live connection and refuses new ones until Revive.
// Idempotent; returns the number of connections severed.
func (b *Breaker) Kill() int {
	b.mu.Lock()
	b.dead = true
	sever := make([]net.Conn, 0, len(b.conns))
	for c := range b.conns {
		sever = append(sever, c)
	}
	clear(b.conns)
	b.mu.Unlock()
	for _, c := range sever {
		c.Close()
	}
	return len(sever)
}

// Revive restores normal accepts.
func (b *Breaker) Revive() {
	b.mu.Lock()
	b.dead = false
	b.mu.Unlock()
}

// breakerConn untracks itself on close, so Kill severs only live ones.
type breakerConn struct {
	net.Conn
	b    *Breaker
	once sync.Once
}

func (c *breakerConn) Close() error {
	c.once.Do(func() {
		c.b.mu.Lock()
		delete(c.b.conns, c)
		c.b.mu.Unlock()
	})
	return c.Conn.Close()
}
