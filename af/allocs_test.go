//go:build !race

package af_test

import (
	"runtime"
	"testing"

	"audiofile/af"
)

// TestClientPathAllocs holds the client's hot calls to zero allocations
// over a unix socket, server included: a GetTime, an 8 KiB play (one
// chunk, copied into the request buffer) and a 24 KiB record (three
// pipelined chunks, each payload copied from the borrowed read buffer
// into the caller's).
func TestClientPathAllocs(t *testing.T) {
	r := newStack(t)
	c := r.dial(t)
	ac, err := c.CreateAC(1, af.ACPreemption, af.ACAttributes{Preempt: true})
	if err != nil {
		t.Fatal(err)
	}
	primeRecording(t, ac)
	const recBytes = 24 << 10
	r.step(recBytes + 512)
	now, err := ac.GetTime()
	if err != nil {
		t.Fatal(err)
	}
	play := make([]byte, 8<<10)
	rec := make([]byte, recBytes)
	calls := []struct {
		name string
		call func() error
	}{
		{"GetTime", func() error { _, err := c.GetTime(1); return err }},
		{"PlaySamples 8 KiB", func() error { _, err := ac.PlaySamples(now.Add(4000), play); return err }},
		{"RecordSamples 24 KiB", func() error {
			_, n, err := ac.RecordSamples(now.Add(-recBytes), rec, true)
			if err == nil && n != recBytes {
				t.Fatalf("recorded %d bytes, want %d", n, recBytes)
			}
			return err
		}},
	}
	for _, tc := range calls {
		var err error
		allocs := testing.AllocsPerRun(200, func() {
			if e := tc.call(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", tc.name, allocs)
		}
	}
}

// TestIdleConnsHoldNoReadBuffer opens a thousand connections and makes a
// round trip on each: the read buffer each one borrowed went back to the
// pool with the reply, so what stays resident per connection — the Conn,
// its socket and the server's side of it — is far below the 64 KiB read
// buffer a Conn used to own.
func TestIdleConnsHoldNoReadBuffer(t *testing.T) {
	r := newStack(t)
	r.dial(t).Sync() //nolint:errcheck — warm the server's pools
	const n = 1000
	before := heapAfterGC()
	conns := make([]*af.Conn, n)
	for i := range conns {
		conns[i] = r.dial(t)
		if err := conns[i].Sync(); err != nil {
			t.Fatal(err)
		}
	}
	perConn := (heapAfterGC() - before) / n
	runtime.KeepAlive(conns)
	if perConn > 16<<10 {
		t.Fatalf("an idle connection holds %d heap bytes", perConn)
	}
}

func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC() // the second empties the pools' victim caches
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
