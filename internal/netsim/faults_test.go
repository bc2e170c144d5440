package netsim

import (
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"
)

// sink is a net.Conn that records the size of every Write it receives,
// so fragmentation tests can compare boundary placement exactly.
type sink struct {
	net.Conn // nil; only Write and Close are used
	writes   []int
	closed   bool
}

func (s *sink) Write(b []byte) (int, error) {
	s.writes = append(s.writes, len(b))
	return len(b), nil
}

func (s *sink) Close() error {
	s.closed = true
	return nil
}

func TestFaultFragmentationDeterministic(t *testing.T) {
	payload := make([]byte, 4096)
	run := func(seed int64) []int {
		s := &sink{}
		fc := NewFaultConn(s, FaultConfig{Seed: seed, MaxFragment: 16})
		for i := 0; i < 8; i++ {
			if _, err := fc.Write(payload); err != nil {
				t.Fatal(err)
			}
		}
		return s.writes
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different fragment boundaries:\n%v\n%v", a, b)
	}
	c := run(43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fragment boundaries")
	}
	for i, n := range a {
		if n < 1 || n > 16 {
			t.Fatalf("fragment %d has size %d, want 1..16", i, n)
		}
	}
	total := 0
	for _, n := range a {
		total += n
	}
	if total != 8*len(payload) {
		t.Fatalf("fragments total %d bytes, want %d", total, 8*len(payload))
	}
}

func TestFaultResetMidMessage(t *testing.T) {
	s := &sink{}
	fc := NewFaultConn(s, FaultConfig{Seed: 1, ResetAfterBytes: 50})
	msg := make([]byte, 100)
	n, err := fc.Write(msg)
	if n != 50 {
		t.Errorf("wrote %d bytes before reset, want 50 (mid-message)", n)
	}
	if !errors.Is(err, ErrInjectedReset) {
		t.Errorf("err = %v, want ErrInjectedReset", err)
	}
	if !s.closed {
		t.Error("inner connection not closed at the reset point")
	}
	if _, err := fc.Write([]byte("more")); !errors.Is(err, ErrInjectedReset) {
		t.Errorf("write after reset: err = %v, want ErrInjectedReset", err)
	}
}

// TestFaultResetSeenByPeer runs the reset over a real pipe: the reader
// must receive exactly the bytes before the cut, then EOF — a
// connection dying mid-message.
func TestFaultResetSeenByPeer(t *testing.T) {
	a, b := net.Pipe()
	fc := NewFaultConn(a, FaultConfig{Seed: 7, ResetAfterBytes: 10})
	got := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(b)
		got <- data
	}()
	_, err := fc.Write(make([]byte, 64))
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("err = %v, want ErrInjectedReset", err)
	}
	select {
	case data := <-got:
		if len(data) != 10 {
			t.Errorf("peer received %d bytes, want 10", len(data))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("peer read did not finish after reset")
	}
}

// TestFaultStall times both uses of the stall: a congested peer every
// 100 bytes, and the injected RTT the rig builds from a stall before every
// write. The upper bound, 5× the stalls, leaves room for each sleep's
// overshoot on a loaded host.
func TestFaultStall(t *testing.T) {
	const stall = 20 * time.Millisecond
	for _, tc := range []struct {
		name          string
		every, stalls int
	}{
		// 250 bytes in 50-byte writes crosses the 100-byte mark twice.
		{"every 100 bytes", 100, 2},
		{"every write", 1, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fc := NewFaultConn(&sink{}, FaultConfig{Seed: 1, StallEveryBytes: tc.every, Stall: stall})
			start := time.Now()
			for i := 0; i < 5; i++ {
				if _, err := fc.Write(make([]byte, 50)); err != nil {
					t.Fatal(err)
				}
			}
			el, want := time.Since(start), time.Duration(tc.stalls)*stall
			if el < want || el >= 5*want {
				t.Errorf("5 writes took %v, want %v from %d stalls, under %v", el, want, tc.stalls, 5*want)
			}
		})
	}
}
