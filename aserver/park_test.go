package aserver

import (
	"testing"
	"time"

	"audiofile/internal/proto"
	"audiofile/internal/sampleconv"
)

// TestCompressedRecordEarlyWakeRearms pins the resume latency of a
// blocking ADPCM record: its wake task is an estimate, and one that
// lands before the device clock has produced the samples must schedule
// another rather than leave the request to the next periodic update.
// The manual clock stands still, so the retry here is always early.
func TestCompressedRecordEarlyWakeRearms(t *testing.T) {
	srv, c, clk, cleanup := benchServer(t)
	defer cleanup()
	clk.Advance(4096)
	srv.Sync()
	e := srv.engineByDev[0]
	var p *parked
	srv.Do(func() {
		a := c.acs[1]
		a.enc, a.recCoder = sampleconv.ADPCM4, &sampleconv.ADPCMCoder{}
		// 64 ADPCM bytes are 128 frames, all of them still in the future.
		now := uint32(srv.Device(0).Time())
		_, p = srv.dispatchHotGroup(c, benchRun(proto.OpRecordSamples, 0, recordBody(1, now, 64)), &request{c: c})
	})
	if p == nil {
		t.Fatal("record of future samples did not park")
	}

	e.mu.Lock()
	before := len(e.tasks.h)
	e.retryParked(c, p)
	after := len(e.tasks.h)
	e.mu.Unlock()
	if after != before+1 {
		t.Fatalf("early wake left %d engine tasks, want %d: the park was not re-armed", after, before+1)
	}

	clk.Advance(256)
	srv.Sync()
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		t.Fatal("park did not complete once the samples existed")
	}
}
