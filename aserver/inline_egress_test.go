package aserver

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"audiofile/internal/proto"
	"audiofile/internal/vdev"
)

// Inline egress: on a socket the connection's reader writes its own
// replies, once per run and without blocking; whatever would block goes
// to the writer goroutine. These tests pin that the split is invisible
// (same bytes as the queued path), that it coalesces (one burst, one
// write), that nothing strands when other goroutines send to the same
// client, and that a stalled peer still meets the one eviction policy.

// sndbufListener shrinks the send buffer of every accepted connection, so
// a peer that stops reading backs the server's socket up after a few
// kilobytes instead of a few hundred.
type sndbufListener struct {
	net.Listener
	bytes int
}

func (l sndbufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		err = c.(*net.UnixConn).SetWriteBuffer(l.bytes)
	}
	return c, err
}

// dialUnix serves srv on a fresh unix socket (server-side SO_SNDBUF set to
// sndbuf when nonzero) and returns a set-up little-endian session on it.
func dialUnix(t testing.TB, srv *Server, sndbuf int) (*net.UnixConn, *bufio.Reader) {
	t.Helper()
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "af"))
	if err != nil {
		t.Fatal(err)
	}
	if sndbuf != 0 {
		ln = sndbufListener{ln, sndbuf}
	}
	go srv.Serve(ln) //nolint:errcheck — ends when Close closes the listener
	nc, err := net.Dial("unix", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	br := bufio.NewReader(nc)
	handshake(t, nc, br)
	return nc.(*net.UnixConn), br
}

// waitFor polls cond for up to ten seconds.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// getTimeBurst marshals n GetTime requests, the first half for device 0
// and the rest for device lastDev.
func getTimeBurst(n int, lastDev uint32) []byte {
	w := proto.Writer{Order: binary.LittleEndian}
	for i := 0; i < n; i++ {
		dev := uint32(0)
		if i >= n/2 {
			dev = lastDev
		}
		proto.AppendDeviceReq(&w, proto.OpGetTime, dev) //nolint:errcheck
	}
	return w.Buf
}

// TestInlineVsQueuedEgress is the "inline vs queued egress" row of the
// equivalence matrix: every golden script and a 32-request burst yield
// the same reply bytes through a unix socket, where the reader drains its
// own replies, and through DialPipe, where the writer goroutine does.
func TestInlineVsQueuedEgress(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.golden"))
	if err != nil || len(files) == 0 {
		t.Fatalf("golden files: %v (%d found)", err, len(files))
	}
	type script struct{ request, golden []byte }
	scripts := map[string]script{"burst32": {request: getTimeBurst(32, 1)}}
	for _, path := range files {
		request, golden := readGolden(t, path)
		scripts[strings.TrimSuffix(filepath.Base(path), ".golden")] = script{request, golden}
	}
	for name, sc := range scripts {
		inline := batchReplyStreamOver(t, "unix", sc.request, 0, false)
		queued := batchReplyStreamOver(t, "pipe", sc.request, 0, false)
		if !bytes.Equal(inline, queued) {
			t.Errorf("%s: inline and queued egress differ:\ninline %d bytes: %x\nqueued %d bytes: %x",
				name, len(inline), inline, len(queued), queued)
		}
		if sc.golden != nil && !bytes.Equal(inline, sc.golden) {
			t.Errorf("%s: inline egress differs from the golden:\ngot  %x\nwant %x", name, inline, sc.golden)
		}
	}
}

// TestBurstCoalesces pins what the framing buffer and the end-of-run
// drain buy: a pipelined burst that arrives in one read is one run, so it
// costs one lock acquisition per engine it names, one staged flush per
// group and one write for everything — and never troubles the writer.
func TestBurstCoalesces(t *testing.T) {
	for _, tc := range []struct {
		name            string
		lastDev         uint32
		groups, flushes uint64
	}{
		{"one engine", 0, 1, 1},
		{"two engines", 1, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := batchTestServer(t)
			nc, br := dialUnix(t, srv, 0)
			roundTrip := func(req []byte, replies int) {
				t.Helper()
				if _, err := nc.Write(req); err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadFull(br, make([]byte, replies*proto.ReplyHeaderBytes)); err != nil {
					t.Fatal(err)
				}
			}
			roundTrip(getTimeBurst(1, 0), 1) // the reader is back in its read
			s0 := srv.Snapshot()
			roundTrip(getTimeBurst(maxRunLen, tc.lastDev), maxRunLen)
			s1 := srv.Snapshot()

			var locks uint64
			for i := range s1.Devices {
				locks += s1.Devices[i].DispatchBatch.Count - s0.Devices[i].DispatchBatch.Count
			}
			if locks != tc.groups {
				t.Errorf("engine-lock acquisitions = %d, want %d", locks, tc.groups)
			}
			if got := s1.DispatchBatch.Sum - s0.DispatchBatch.Sum; got != maxRunLen {
				t.Errorf("requests batched = %d, want %d", got, maxRunLen)
			}
			if got := s1.StagedFlushes - s0.StagedFlushes; got != tc.flushes {
				t.Errorf("staged flushes = %d, want %d", got, tc.flushes)
			}
			if n, msgs := s1.WritevBatch.Count-s0.WritevBatch.Count, s1.WritevBatch.Sum-s0.WritevBatch.Sum; n != 1 || msgs != tc.flushes {
				t.Errorf("egress writes = %d carrying %d messages, want 1 carrying %d", n, msgs, tc.flushes)
			}
			if s1.EgressFallbacks != 0 {
				t.Errorf("egress fallbacks = %d on a reading unix peer, want 0", s1.EgressFallbacks)
			}
		})
	}
}

// TestReaderDrainRacesSenders has a second goroutine send events to a
// client whose reader is looping GetTime runs of every length. Whether an
// event is carried by the reader's end-of-run drain (pushed mid-run, no
// wake) or by the writer (pushed between runs), every one must arrive,
// and each stream — events by their counter, replies by sequence number —
// must arrive in order. Run under -race.
func TestReaderDrainRacesSenders(t *testing.T) {
	// No budget: the point is delivery, and 4000 queued events would be a
	// legitimate eviction if this side fell a grace behind.
	srv := backpressureServer(t, -1, 0)
	nc, br := dialUnix(t, srv, 0)
	var c *client // registered just after the setup reply goes out
	waitFor(t, "registration", func() bool { c = soleClient(srv); return c != nil })

	const events, requests = 4000, 6000
	var sender sync.WaitGroup
	sender.Add(1)
	go func() {
		defer sender.Done()
		for i := 0; i < events; i++ {
			c.sendEvent(&proto.Event{Code: proto.EventPropertyChange, Value: uint32(i)})
			runtime.Gosched()
		}
	}()
	go func() {
		for sent := 0; sent < requests; {
			n := min(1+sent%7, requests-sent)
			if _, err := nc.Write(getTimeBurst(n, 0)); err != nil {
				return // the reading side reports what is missing
			}
			sent += n
		}
	}()

	nc.SetReadDeadline(time.Now().Add(20 * time.Second)) //nolint:errcheck
	var msg proto.Message
	gotEvents, gotReplies := 0, 0
	for gotEvents < events || gotReplies < requests {
		if err := proto.ReadMessageInto(br, binary.LittleEndian, &msg); err != nil {
			t.Fatalf("after %d of %d events and %d of %d replies: %v (stranded in the queue: %d bytes)",
				gotEvents, events, gotReplies, requests, err, srv.Snapshot().QueuedBytes)
		}
		switch {
		case msg.Event != nil:
			if msg.Event.Value != uint32(gotEvents) {
				t.Fatalf("event %d arrived where %d was due", msg.Event.Value, gotEvents)
			}
			gotEvents++
		case msg.Reply != nil:
			gotReplies++
			if msg.Reply.Seq != uint16(gotReplies) {
				t.Fatalf("reply seq %d arrived where %d was due", msg.Reply.Seq, uint16(gotReplies))
			}
		default:
			t.Fatalf("unexpected message %+v", msg)
		}
	}
	sender.Wait()
	// A vector is settled after its write returns, so the last one may
	// still be on the books for a moment after this side has read it.
	waitFor(t, "the books to settle", func() bool { return srv.Snapshot().QueuedBytes == 0 })
}

// backpressureScript is CreateAC plus n non-blocking 1000-byte records of
// the already-captured past: n replies of about a kilobyte each, none of
// which can park.
func backpressureScript(n int) (createAC []byte, records [][]byte) {
	w := proto.Writer{Order: binary.LittleEndian}
	proto.AppendCreateAC(&w, proto.CreateACReq{AC: 1, Device: 0}) //nolint:errcheck
	createAC = w.Buf
	for i := 0; i < n; i++ {
		w := proto.Writer{Order: binary.LittleEndian}
		proto.AppendRecordSamples(&w, proto.RecordSamplesReq{ //nolint:errcheck
			AC: 1, Time: uint32(1000 + i), NBytes: 1000, Flags: proto.SampleFlagNoBlock})
		records = append(records, w.Buf)
	}
	return createAC, records
}

// backpressureServer is one codec on a frozen clock with 4096 frames
// already captured, and the given eviction policy.
func backpressureServer(t *testing.T, budget int, grace time.Duration) *Server {
	t.Helper()
	clk := vdev.NewManualClock(8000)
	srv, err := New(Options{
		Devices:          []DeviceSpec{{Kind: "codec", Clock: clk}},
		Logf:             func(string, ...any) {},
		ClientQueueBytes: budget,
		EvictGrace:       grace,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	clk.Advance(4096)
	srv.Sync()
	return srv
}

// TestInlineDrainBackpressure stalls a client behind a small socket
// buffer while it keeps pipelining records. The reader's drain must hand
// over to the writer rather than block (requests keep being dispatched
// with bytes stuck in the queue), the stuck queue is judged by the same
// policy as ever (over budget for longer than the grace: evicted with
// Overload), and a client that resumes inside its grace reads exactly the
// bytes an unstalled client reads — the remainder of a partial write
// leaves before anything queued behind it.
func TestInlineDrainBackpressure(t *testing.T) {
	const sndbuf = 4 << 10
	const n = 48
	createAC, records := backpressureScript(n)
	// pipeline writes records[from:to] and waits until the server has
	// dispatched them all, which it can only do if no drain blocked.
	pipeline := func(t *testing.T, srv *Server, nc net.Conn, from, to int) {
		t.Helper()
		if _, err := nc.Write(bytes.Join(records[from:to], nil)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, fmt.Sprintf("%d requests dispatched", 1+to), func() bool {
			return dispatched(srv) == uint64(1+to)
		})
	}

	t.Run("resume inside grace", func(t *testing.T) {
		run := func(stall bool) []byte {
			srv := backpressureServer(t, 8<<10, time.Minute)
			nc, br := dialUnix(t, srv, sndbuf)
			if _, err := nc.Write(createAC); err != nil {
				t.Fatal(err)
			}
			collected := make(chan []byte, 1)
			collect := func() {
				replies, _ := io.ReadAll(br)
				collected <- replies
			}
			if !stall {
				go collect()
			}
			for i := 0; i < n; i += 8 {
				pipeline(t, srv, nc, i, i+8)
			}
			if stall {
				s := srv.Snapshot()
				if s.EgressFallbacks == 0 || s.QueuedBytes <= 8<<10 {
					t.Fatalf("stalled client: fallbacks=%d queued=%d, want the writer engaged and the queue over budget",
						s.EgressFallbacks, s.QueuedBytes)
				}
				go collect()
			}
			waitFor(t, "the queue to drain", func() bool { return srv.Snapshot().QueuedBytes == 0 })
			if s := srv.Snapshot(); s.Evictions != 0 {
				t.Fatalf("evictions = %d inside the grace", s.Evictions)
			}
			nc.CloseWrite() //nolint:errcheck
			return <-collected
		}
		unstalled, stalled := run(false), run(true)
		if len(unstalled) < n*1000 {
			t.Fatalf("unstalled run returned %d bytes, want at least %d", len(unstalled), n*1000)
		}
		if !bytes.Equal(stalled, unstalled) {
			t.Errorf("stalled reply stream (%d bytes) differs from the unstalled one (%d bytes)",
				len(stalled), len(unstalled))
		}
	})

	t.Run("evicted past grace", func(t *testing.T) {
		const budget, grace = 8 << 10, 300 * time.Millisecond
		srv := backpressureServer(t, budget, grace)
		nc, br := dialUnix(t, srv, sndbuf)
		if _, err := nc.Write(createAC); err != nil {
			t.Fatal(err)
		}
		start := time.Now() // before the queue can have gone over budget
		pipeline(t, srv, nc, 0, 16)
		waitFor(t, "a drain to fall back", func() bool { return srv.Snapshot().EgressFallbacks != 0 })
		// The writer is now blocked on the full socket. The reader is not:
		// it dispatches the next burst with the queue still backed up.
		pipeline(t, srv, nc, 16, n)
		if s := srv.Snapshot(); s.QueuedBytes <= budget || s.Evictions != 0 {
			t.Fatalf("after %d undelivered replies: queued=%d evictions=%d, want over budget %d and nobody evicted yet",
				n, s.QueuedBytes, s.Evictions, budget)
		}
		// The eviction is counted once the session is torn down, after the
		// goodbye; the verdict itself shows first on the client.
		c := soleClient(srv)
		waitFor(t, "the eviction", func() bool { return c.dead.Load() })
		if held := time.Since(start); held < grace {
			t.Errorf("evicted %v after going over budget, before the %v grace", held, grace)
		}
		// The goodbye is the last thing on the wire: a typed Overload error.
		nc.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		stream, err := io.ReadAll(br)
		if err != nil {
			t.Fatalf("reading the evicted stream: %v", err)
		}
		if len(stream) < proto.EventBytes {
			t.Fatalf("evicted stream is %d bytes, too short to hold the goodbye", len(stream))
		}
		if bye := stream[len(stream)-proto.EventBytes:]; bye[0] != proto.MsgError || bye[1] != proto.ErrOverload {
			t.Errorf("last message: kind %d code %d, want an Overload error (stream %d bytes)", bye[0], bye[1], len(stream))
		}
		waitFor(t, "the session to settle", func() bool {
			s := srv.Snapshot()
			return s.Connects == s.Disconnects && s.QueuedBytes == 0
		})
		s := srv.Snapshot()
		if err := s.Check(true); err != nil {
			t.Error(err)
		}
		if s.Evictions != 1 {
			t.Errorf("evictions %d, want 1", s.Evictions)
		}
	})
}

// socketRoundTrip is one of BenchmarkDispatchSocket's round trips: a
// request burst over a unix socket and the replies it draws.
type socketRoundTrip struct {
	name    string
	req     []byte
	replies int
}

// socketRoundTrips are one GetTime, one 8 KiB play, and three 8 KiB plays
// in one write (one read, one run, one lock hold, three acks in one write
// back).
func socketRoundTrips() []socketRoundTrip {
	play := proto.Writer{Order: binary.LittleEndian}
	proto.AppendPlaySamples(&play, proto.PlaySamplesReq{AC: 1, Time: 4096, Data: make([]byte, 8<<10)}) //nolint:errcheck
	return []socketRoundTrip{
		{"gettime", getTimeBurst(1, 0), 1},
		{"play8k", play.Buf, 1},
		{"burst3x8k", bytes.Repeat(play.Buf, 3), 3},
	}
}

// serve readies a session for rt over a unix socket — device time ahead
// of the plays, AC 1 created — and returns one round trip on it. check
// requires that every reply took the inline path and none was an error.
func (rt socketRoundTrip) serve(tb testing.TB) (roundTrip, check func()) {
	srv, clk := batchTestServer(tb)
	clk.Advance(4096)
	srv.Sync()
	nc, br := dialUnix(tb, srv, 0)
	createAC, _ := backpressureScript(0)
	if _, err := nc.Write(createAC); err != nil {
		tb.Fatal(err)
	}
	reply := make([]byte, rt.replies*proto.ReplyHeaderBytes)
	roundTrip = func() {
		if _, err := nc.Write(rt.req); err != nil {
			tb.Fatal(err)
		}
		if _, err := io.ReadFull(br, reply); err != nil {
			tb.Fatal(err)
		}
	}
	check = func() {
		if s := srv.Snapshot(); s.EgressFallbacks != 0 || s.ClientErrors != 0 {
			tb.Fatalf("fallbacks=%d errors=%d, want the inline path and no error replies", s.EgressFallbacks, s.ClientErrors)
		}
	}
	return roundTrip, check
}

// BenchmarkDispatchSocket times the socket path, where the reader borrows
// its ingress buffer per burst, frames and dispatches in place and writes
// the replies itself, inside its serving callback: socketRoundTrips over
// a unix socket. TestDispatchSocketAllocs holds the same round trips to 0
// allocations. (The other BenchmarkDispatch* gates run on pipes, which
// hold their buffer and take the queued path.)
func BenchmarkDispatchSocket(b *testing.B) {
	for _, rt := range socketRoundTrips() {
		b.Run(rt.name, func(b *testing.B) {
			roundTrip, check := rt.serve(b)
			b.SetBytes(int64(len(rt.req)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roundTrip()
			}
			b.StopTimer()
			check()
		})
	}
}
