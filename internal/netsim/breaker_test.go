package netsim

import (
	"net"
	"testing"
	"time"
)

// TestBreakerKillRevive exercises the backend-kill helper: live
// connections sever on Kill, new dials die immediately while dead, and
// Revive restores service on the same address.
func TestBreakerKillRevive(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBreaker(inner)
	defer b.Close()

	// Echo server over the breaker.
	go func() {
		for {
			c, err := b.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 64)
				for {
					n, err := c.Read(buf)
					if err != nil {
						c.Close()
						return
					}
					c.Write(buf[:n]) //nolint:errcheck
				}
			}()
		}
	}()

	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", b.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	roundTrip := func(c net.Conn) error {
		c.SetDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
		if _, err := c.Write([]byte("ping")); err != nil {
			return err
		}
		buf := make([]byte, 4)
		_, err := c.Read(buf)
		return err
	}

	c1 := dial()
	defer c1.Close()
	if err := roundTrip(c1); err != nil {
		t.Fatalf("round trip before kill: %v", err)
	}

	if n := b.Kill(); n != 1 {
		t.Fatalf("Kill severed %d conns, want 1", n)
	}
	if err := roundTrip(c1); err == nil {
		t.Fatal("severed connection still round-trips")
	}
	// A dial while dead connects (the port is bound) but dies at once.
	c2 := dial()
	defer c2.Close()
	if err := roundTrip(c2); err == nil {
		t.Fatal("connection accepted while dead still round-trips")
	}

	b.Revive()
	c3 := dial()
	defer c3.Close()
	if err := roundTrip(c3); err != nil {
		t.Fatalf("round trip after revive: %v", err)
	}
}
