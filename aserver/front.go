package aserver

import (
	"fmt"
	"net"
	"sync"
)

// front is the accept side a Server and a Router share: the listeners,
// the one lifecycle flag, and the goroutines that serve connections. Its
// lock is its owner's (Server.ctl, Router.mu), so the owner's own state
// and closed change together, and a handler's check of closed under that
// lock orders it against the owner's Close.
type front struct {
	mu     *sync.Mutex
	handle func(net.Conn) // runs one connection, on its own goroutine

	listeners []net.Listener
	// closed is set once, by the owner's Close (closeLocked); done is
	// closed with it, for the goroutines that wait rather than ask.
	closed bool
	done   chan struct{}
	// wg counts every handler and any other goroutine the owner starts;
	// the owner's Close waits on it.
	wg sync.WaitGroup
}

// Serve accepts connections on l until the listener or its owner closes.
func (f *front) Serve(l net.Listener) error {
	if err := f.adopt(l); err != nil {
		return err
	}
	return f.accept(l)
}

// Listen starts serving on the given network address in the background.
// Once closed, it closes what it bound and returns an error.
func (f *front) Listen(network, addr string) (net.Listener, error) {
	l, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	if err := f.adopt(l); err != nil {
		l.Close()
		return nil, err
	}
	go f.accept(l) //nolint:errcheck — ends when the listener closes
	return l, nil
}

// DialPipe returns an in-process client connection. Once closed, the
// connection reads EOF.
func (f *front) DialPipe() net.Conn {
	cc, sc := net.Pipe()
	f.spawn(sc)
	return cc
}

// adopt adds l to the listeners that Close and Drain close, or refuses
// once closed.
func (f *front) adopt(l net.Listener) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("aserver: %w", net.ErrClosed)
	}
	f.listeners = append(f.listeners, l)
	return nil
}

func (f *front) accept(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-f.done:
				return nil
			default:
				return err
			}
		}
		f.spawn(conn)
	}
}

// spawn runs a new connection's handler on its own goroutine — or, once
// closed, closes the connection: Close waits on wg, so every Add must be
// ordered before its Wait, which mu does.
func (f *front) spawn(conn net.Conn) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		conn.Close()
		return
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.handle(conn)
	}()
}

// stopAcceptingLocked closes every listener: Drain's first step, and
// Close's. Caller holds mu.
func (f *front) stopAcceptingLocked() {
	for _, l := range f.listeners {
		l.Close()
	}
	f.listeners = nil
}

// closeLocked marks the front closed and stops accepting, reporting
// false when it already was. Caller holds mu.
func (f *front) closeLocked() bool {
	if f.closed {
		return false
	}
	f.closed = true
	close(f.done)
	f.stopAcceptingLocked()
	return true
}
