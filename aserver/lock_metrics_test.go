package aserver

import (
	"sync"
	"testing"
	"time"

	"audiofile/af"
)

// TestLockWaitAndHoldCountTheSameAcquisitions holds lockTimed's contract:
// an uncontended acquisition observes a wait of 0 without reading the
// clock, a contended one observes how long it waited, and either way
// lock_wait_ns and lock_hold_ns count the same acquisitions — so their
// means divide the same population in astat and the bench ledger.
func TestLockWaitAndHoldCountTheSameAcquisitions(t *testing.T) {
	srv, _ := batchTestServer(t)
	a, b := pipeConn(t, srv), pipeConn(t, srv)
	e := srv.engines[0]

	// One contended acquisition for certain: the test holds the engine lock
	// while a connection asks for the time, until a wait has been observed.
	for deadline := time.Now().Add(10 * time.Second); e.m.lockWait.Snapshot().Sum == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no contended acquisition observed a wait")
		}
		asked := make(chan error, 1)
		e.mu.Lock()
		go func() {
			_, err := a.GetTime(0)
			asked <- err
		}()
		time.Sleep(time.Millisecond)
		e.mu.Unlock()
		if err := <-asked; err != nil {
			t.Fatal(err)
		}
	}

	// Two connections on one engine, beside its timer pass.
	var wg sync.WaitGroup
	for _, c := range []*af.Conn{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if _, err := c.GetTime(0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Under the lock no timed locker is between its two observations: one
	// that is waiting observes its wait only once it has the lock, and a
	// holder observes its hold before it lets go.
	e.mu.Lock()
	wait, hold := e.m.lockWait.Snapshot(), e.m.lockHold.Snapshot()
	e.mu.Unlock()
	if wait.Count != hold.Count || wait.Count < 4000 {
		t.Errorf("lock_wait_ns.Count = %d, lock_hold_ns.Count = %d; want equal and >= 4000", wait.Count, hold.Count)
	}
	if wait.Sum == 0 {
		t.Error("lock_wait_ns.Sum = 0 after a contended acquisition")
	}
	// Most acquisitions here are uncontended and must have cost no wait:
	// bucket 0 of the log2 histogram holds exactly the zero observations.
	var zeros uint64
	for _, bk := range wait.Buckets {
		if bk.Bit == 0 {
			zeros = bk.Count
		}
	}
	if zeros == 0 {
		t.Errorf("no zero lock_wait_ns observation among %d uncontended-mostly acquisitions", wait.Count)
	}
}
