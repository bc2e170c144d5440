package rig

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestRTTDelaysRoundTrip holds a delayed transport to its injected delay:
// one GetTime over TCP with a 1 ms RTT takes at least 1 ms. afperf -quick
// skips the delayed configurations, so this is their tier-1 check.
func TestRTTDelaysRoundTrip(t *testing.T) {
	const rtt = time.Millisecond
	r := New(t, Config{Transport: "tcp", RTT: rtt})
	start := time.Now()
	if _, err := r.Conn.GetTime(0); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < rtt {
		t.Errorf("GetTime over tcp+%v took %v, want at least the RTT", rtt, took)
	}
}

type codeError struct{ code int }

func (e codeError) Error() string { return fmt.Sprintf("code %d", e.code) }

// TestFirstErrorKeepsFirst fails one latch from many goroutines with errors
// of mixed concrete types, after a first error of yet another type: the
// latch must keep that first error, and nil must not count as one.
func TestFirstErrorKeepsFirst(t *testing.T) {
	var fe FirstError
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fe.Fail(nil)
		}()
	}
	wg.Wait()
	if err := fe.Err(); err != nil {
		t.Fatalf("after nil failures Err = %v, want nil", err)
	}

	first := fmt.Errorf("soak: reply stream: %w", io.EOF)
	fe.Fail(first)
	start := make(chan struct{})
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			switch i % 4 {
			case 0:
				fe.Fail(errors.New("soak: second failure"))
			case 1:
				fe.Fail(codeError{i})
			case 2:
				fe.Fail(syscall.ECONNRESET)
			default:
				fe.Fail(fmt.Errorf("soak: wrapped: %w", io.ErrUnexpectedEOF))
			}
		}()
	}
	close(start)
	wg.Wait()
	if err := fe.Err(); err != first {
		t.Fatalf("Err = %v, want the first error %v", err, first)
	}
}
