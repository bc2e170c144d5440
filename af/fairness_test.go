package af_test

import (
	"sync/atomic"
	"testing"
	"time"

	"audiofile/af"
)

// TestFairnessUnderBulkTraffic checks §7.1's fairness goal: one client
// streaming large play requests must not prevent the server from serving
// another client. The client library's 8 KiB chunking means no single
// request occupies the single-threaded dispatcher for long, so the second
// client's round trips stay bounded.
func TestFairnessUnderBulkTraffic(t *testing.T) {
	r := newStack(t)
	bulk := r.dial(t)
	interactive := r.dial(t)

	bac, err := bulk.CreateAC(1, 0, af.ACAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	now, err := bac.GetTime()
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	bulkDone := make(chan struct{})
	go func() {
		defer close(bulkDone)
		// 24 KiB blocks, rewritten at a fixed future region so the bulk
		// client never blocks on time.
		data := make([]byte, 24<<10)
		start := now.Add(4000)
		for !stop.Load() {
			if _, err := bac.PlaySamples(start, data); err != nil {
				return
			}
		}
	}()

	// Let the bulk stream get going.
	time.Sleep(20 * time.Millisecond)
	var worst time.Duration
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := interactive.GetTime(1); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d > worst {
			worst = d
		}
	}
	stop.Store(true)
	<-bulkDone

	// The paper's fairness bar: round-robin service with chunked requests
	// keeps other clients responsive. 100 ms is over a thousand times the
	// per-chunk cost — failures here mean the loop wedged, not jitter.
	if worst > 100*time.Millisecond {
		t.Errorf("interactive GetTime worst latency %v under bulk load", worst)
	}
}
