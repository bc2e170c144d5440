package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"
)

// The sandbox this benchmark runs in changes speed under it: for seconds
// or minutes at a time every socket round trip, in any program, costs up
// to 1.5 times what it did a moment before (a pure CPU loop slows by a
// tenth). No bound of 25% survives that, so every end-to-end time is
// measured beside a control and reported at the control's nominal speed.
//
// refLoop is the control: a 64-byte echo between two goroutines of this
// process, over the kind of socket the workload uses (unix and TCP
// sockets do not slow by the same factor). It is made of the Go runtime
// and the kernel only — none of the repository's code — so a change to
// the repository cannot move it, and it pays for the same things a cycle
// pays for: socket system calls, the netpoller and goroutine switches.
type refLoop struct {
	c       net.Conn
	l       net.Listener
	nominal float64
	buf     [64]byte
	samples []uint32 // round-trip times since the last reset, ns
}

// refNominalNs is the control's median round trip in the sandbox's fast
// regime, per transport. Reported times are measured times × nominal ÷
// the control's median round trip over the same half second.
var refNominalNs = map[string]float64{"unix": 3600, "tcp": 5400}

// refSlice is how long the control runs each time it is interleaved with
// the workload; workSlice is how long the workload runs between.
const (
	refSlice  = 10 * time.Millisecond
	workSlice = 90 * time.Millisecond
)

func newRefLoop(network, outDir string) (*refLoop, error) {
	addr := "127.0.0.1:0"
	if network == "unix" {
		addr = filepath.Join(outDir, fmt.Sprintf("ref-%d-%d.sock", os.Getpid(), sockSeq.Add(1)))
	}
	l, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	go func() {
		s, err := l.Accept()
		if err != nil {
			return
		}
		defer s.Close()
		var b [64]byte
		for {
			if _, err := io.ReadFull(s, b[:]); err != nil {
				return
			}
			if _, err := s.Write(b[:]); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial(network, l.Addr().String())
	if err != nil {
		l.Close()
		return nil, err
	}
	return &refLoop{c: c, l: l, nominal: refNominalNs[network], samples: make([]uint32, 0, 1<<18)}, nil
}

// close ends the echo goroutine (its read fails) and removes the socket.
func (r *refLoop) close() {
	r.c.Close()
	r.l.Close()
}

func (r *refLoop) reset() { r.samples = r.samples[:0] }

// run echoes for dur, adding each round trip to the samples.
func (r *refLoop) run(dur time.Duration) error {
	start := time.Now()
	for {
		t0 := time.Now()
		if _, err := r.c.Write(r.buf[:]); err != nil {
			return fmt.Errorf("reference echo: %w", err)
		}
		if _, err := io.ReadFull(r.c, r.buf[:]); err != nil {
			return fmt.Errorf("reference echo: %w", err)
		}
		t1 := time.Now()
		if len(r.samples) < cap(r.samples) {
			r.samples = append(r.samples, uint32(t1.Sub(t0)))
		}
		if t1.Sub(start) >= dur {
			return nil
		}
	}
}

// speed returns the factor that brings a time measured beside the samples
// to the control's nominal speed, and the control's median round trip.
func (r *refLoop) speed() (factor, rttNs float64) {
	rttNs = medianNs(r.samples)
	if rttNs == 0 {
		return 1, 0
	}
	return r.nominal / rttNs, rttNs
}
