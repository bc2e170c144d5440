package rig

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"syscall"
	"testing"
)

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
