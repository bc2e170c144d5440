package aserver

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"audiofile/internal/netsim"
	"audiofile/internal/proto"
	"audiofile/internal/vdev"
)

// Batching correctness: how requests arrive — pipelined into one run,
// split at arbitrary packet boundaries, or strictly one at a time — must
// not be observable. Same replies, same bytes, same per-connection FIFO
// order, including across parks that suspend a run in the middle.

// batchTestServer builds a two-codec server (two engines) on one manual
// clock.
func batchTestServer(t testing.TB) (*Server, *vdev.ManualClock) {
	t.Helper()
	clk := vdev.NewManualClock(8000)
	srv, err := New(Options{
		Devices: []DeviceSpec{{Kind: "codec", Clock: clk}, {Kind: "codec", Clock: clk}},
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, clk
}

// handshake runs the little-endian setup exchange: the request goes out
// on w (which may fragment it), the reply comes back on r.
func handshake(t testing.TB, w io.Writer, r io.Reader) {
	t.Helper()
	if _, err := proto.Setup(w, r, binary.LittleEndian, "", nil); err != nil {
		t.Fatal(err)
	}
}

// TestBatchParkMidRunFIFO pipelines one write carrying a control op, a
// play that parks beyond the buffer horizon, and a tail of GetTimes.
// The whole burst lands in the ingress buffer at once, so the reader
// coalesces it into a single ingress run; the park must suspend
// that run — no reply for anything behind the parked play until it
// resolves — and the replies must come back in request order.
func TestBatchParkMidRunFIFO(t *testing.T) {
	srv, clk := batchTestServer(t)
	conn := srv.DialPipe()
	defer conn.Close()
	br := bufio.NewReader(conn)
	handshake(t, conn, br)

	w := proto.Writer{Order: binary.LittleEndian}
	// seq 1: CreateAC — a control round trip at the head of the run; the
	// hot requests behind it must see the context it creates.
	if err := proto.AppendCreateAC(&w, proto.CreateACReq{AC: 1, Device: 0}); err != nil {
		t.Fatal(err)
	}
	// seq 2: a play whose tail lies past the ~4 s buffer horizon — parks.
	if err := proto.AppendPlaySamples(&w, proto.PlaySamplesReq{
		AC: 1, Time: 40000, Data: make([]byte, 64),
	}); err != nil {
		t.Fatal(err)
	}
	// seq 3..6: GetTimes queued behind the park.
	for i := 0; i < 4; i++ {
		if err := proto.AppendDeviceReq(&w, proto.OpGetTime, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(w.Buf); err != nil {
		t.Fatal(err)
	}

	// While the head of the run is parked, the connection must be silent:
	// answering the GetTimes now would reorder the reply stream.
	if err := conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("got a reply while the head of the run was parked")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}

	// Advance past the play's window and run an update cycle: the park
	// resolves, then the suspended tail of the run dispatches.
	clk.Advance(48000)
	srv.Sync()

	var msg proto.Message
	for want := uint16(2); want <= 6; want++ {
		if err := proto.ReadMessageInto(br, binary.LittleEndian, &msg); err != nil {
			t.Fatal(err)
		}
		if msg.Reply == nil {
			t.Fatalf("want reply seq %d, got %+v", want, msg)
		}
		if msg.Reply.Seq != want {
			t.Fatalf("reply out of order: got seq %d, want %d", msg.Reply.Seq, want)
		}
	}
}

// batchScript turns fuzz bytes into a pipelined request stream over a
// small op alphabet: valid and invalid hot ops (staged replies, staged
// errors), control ops that split a run (round-trip Sync, reply-less
// NoOp), and — keyed off the script length — a trailing partial header or
// a malformed one (length under a unit), which must stop the connection
// at the same point however the stream is delivered. The three highest
// byte values are the bulk ops, whose bodies the reader frames in place
// in its ingress buffer: an 8 KiB preempt play, three of them back to back
// (what a client ships as one vectored write), and a play bigger than the
// buffer itself, which parks. With bytes behind them they put partial
// tails, compaction and growth at every offset of the buffer.
func batchScript(script []byte) []byte {
	w := proto.Writer{Order: binary.LittleEndian}
	proto.AppendCreateAC(&w, proto.CreateACReq{AC: 1, Device: 0}) //nolint:errcheck
	preemptAC := false
	bulkPlay := func(at, n int) {
		if !preemptAC {
			preemptAC = true
			proto.AppendCreateAC(&w, proto.CreateACReq{AC: 2, Device: 0, //nolint:errcheck
				Mask: proto.ACPreemption, Attrs: proto.ACAttributes{Preempt: 1}})
		}
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 5)
		}
		proto.AppendPlaySamples(&w, proto.PlaySamplesReq{AC: 2, Time: uint32(at), Data: data}) //nolint:errcheck
	}
	for _, b := range script {
		if b >= 0xfd && len(w.Buf) > 256<<10 {
			b = 0 // bound the stream: past this size a bulk op is a GetTime
		}
		switch {
		case b == 0xfd:
			bulkPlay(4096, 8<<10)
			continue
		case b == 0xfe:
			for i := 0; i < 3; i++ {
				bulkPlay(4096+i*8<<10, 8<<10)
			}
			continue
		case b == 0xff: // exceeds the ingress buffer, and the buffer horizon
			bulkPlay(4096, proto.IngressBytes+8<<10)
			continue
		}
		switch b % 7 {
		case 0:
			proto.AppendDeviceReq(&w, proto.OpGetTime, 0) //nolint:errcheck
		case 1: // unknown device: error reply
			proto.AppendDeviceReq(&w, proto.OpGetTime, 99) //nolint:errcheck
		case 2:
			data := make([]byte, int(b>>3))
			for i := range data {
				data[i] = byte(i*3) + b
			}
			proto.AppendPlaySamples(&w, proto.PlaySamplesReq{ //nolint:errcheck
				AC: 1, Time: 4096, Data: data})
		case 3: // unknown AC: error reply
			proto.AppendPlaySamples(&w, proto.PlaySamplesReq{ //nolint:errcheck
				AC: 9, Time: 4096, Data: []byte{1, 2, 3, 4}})
		case 4: // non-blocking record of an already-captured window
			proto.AppendRecordSamples(&w, proto.RecordSamplesReq{ //nolint:errcheck
				AC: 1, Time: 0, NBytes: uint32(b >> 3), Flags: proto.SampleFlagNoBlock})
		case 5: // round-trip control op in the middle of a run
			proto.AppendEmptyReq(&w, proto.OpSyncConnection, 0) //nolint:errcheck
		case 6: // reply-less control op
			proto.AppendEmptyReq(&w, proto.OpNoOperation, 0) //nolint:errcheck
		}
	}
	switch len(script) % 3 {
	case 1: // partial trailing header: never framed, dies with the conn
		w.Buf = append(w.Buf, proto.OpGetTime, 0)
	case 2: // malformed header (length 0 < one unit): reader stops here
		w.Buf = append(w.Buf, 0xff, 0, 0, 0)
	}
	return w.Buf
}

// wholeRequests returns the end offset of each complete, well-formed
// request at the head of stream — everything the server's reader will
// frame before it hits a malformed header, a partial tail, or the end.
func wholeRequests(stream []byte) (ends []int) {
	for off := 0; len(stream)-off >= 4; {
		size := int(binary.LittleEndian.Uint16(stream[off+2:])) * 4
		if size < 4 || off+size > len(stream) {
			break
		}
		off += size
		ends = append(ends, off)
	}
	return ends
}

// parkAdvance is how far the harness moves the manual clock each time it
// finds the connection parked: past the whole buffer horizon, so any
// parked play or blocking record resolves on the next update.
const parkAdvance = 48000

// batchReplyStream runs one request stream against a fresh server and
// returns the complete reply byte stream. Delivery is the variable:
//
//   - lockstep: one request per write, the next written only once the
//     server has dispatched the one before, so every ingress run — and
//     every dispatch group — has length one;
//   - otherwise one write of the whole stream, so the reader coalesces
//     whatever lands in its ingress buffer; seed != 0 fragments that
//     write into chunks of 1–5 bytes (more, in proportion, once the
//     stream carries bulk plays) at seeded-random boundaries, so runs
//     start and end at every possible split of the same logical stream.
//
// Device time is part of the fingerprint (every reply carries it), so it
// moves only at points the stream itself fixes: a head start before the
// connection opens, then parkAdvance each time the connection parks —
// the one moment nothing else of the stream can be dispatched.
func batchReplyStream(t *testing.T, stream []byte, seed int64, lockstep bool) []byte {
	t.Helper()
	return batchReplyStreamOver(t, "tcp", stream, seed, lockstep)
}

// batchReplyStreamOver is batchReplyStream with the transport as a second
// variable: "tcp" and "unix" are sockets, whose replies the connection's
// reader writes itself (inline egress); "pipe" is DialPipe, which has no
// RawConn, so every reply crosses to the writer goroutine (queued egress).
func batchReplyStreamOver(t *testing.T, network string, stream []byte, seed int64, lockstep bool) []byte {
	t.Helper()
	srv, clk := batchTestServer(t)
	// Give device time a head start so the script's record windows are
	// already captured.
	clk.Advance(4096)
	srv.Sync()

	var nc net.Conn
	if network == "pipe" {
		nc = srv.DialPipe()
	} else {
		addr := "127.0.0.1:0"
		if network == "unix" {
			addr = filepath.Join(t.TempDir(), "af")
		}
		ln, err := srv.Listen(network, addr)
		if err != nil {
			t.Fatal(err)
		}
		if nc, err = net.Dial(network, ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
	}
	defer nc.Close()
	var wc io.Writer = nc
	if seed != 0 {
		wc = netsim.NewFaultConn(nc, netsim.FaultConfig{
			Seed: seed, MaxFragment: max(5, len(stream)/512)})
	}
	br := bufio.NewReader(nc)
	handshake(t, wc, br)
	// Replies are collected as they come: a pipe holds nothing, so the
	// server's writer only gets as far as this side has read.
	collected := make(chan []byte, 1)
	go func() {
		replies, _ := io.ReadAll(br) // a closed pipe ends in an error, not EOF
		collected <- replies
	}()

	// awaitDispatched returns once the server has dispatched want requests
	// and the connection is not parked, advancing the clock past every
	// park it meets on the way.
	awaitDispatched := func(want int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			// Read before the park counters: a request is counted after any
			// park it causes is registered, so "all dispatched, none
			// parked" cannot miss a park at the tail.
			done := dispatched(srv) == uint64(want)
			parked := false
			for _, e := range srv.engines {
				parked = parked || outstanding(e) != 0
			}
			switch {
			case parked:
				clk.Advance(parkAdvance)
				srv.Sync()
			case done:
				return
			case time.Now().After(deadline):
				t.Fatalf("server dispatched %d of %d requests", dispatched(srv), want)
			default:
				runtime.Gosched()
			}
		}
	}
	ends := wholeRequests(stream)
	sent := 0
	if lockstep {
		for i, end := range ends {
			if _, err := wc.Write(stream[sent:end]); err != nil {
				t.Fatal(err)
			}
			sent = end
			awaitDispatched(i + 1)
		}
	}
	// The rest goes out while parks are resolved here: a reader waiting on
	// a park reads no further, so a stream bigger than the socket's buffer
	// (a unix socket holds less than TCP loopback) finishes only once it is.
	wrote := make(chan error, 1)
	go func() {
		_, err := wc.Write(stream[sent:])
		wrote <- err
	}()
	// Half-close only once every whole request has been dispatched and no
	// park is outstanding: an EOF that overtakes a parked request would
	// discard it instead of answering it. The server reader then sees EOF
	// (or the malformed tail), tears the session down, and the writer
	// flushes what is queued.
	awaitDispatched(len(ends))
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if hc, ok := nc.(interface{ CloseWrite() error }); ok {
		if err := hc.CloseWrite(); err != nil {
			t.Fatal(err)
		}
	} else {
		// A pipe cannot half-close: wait until the run that carried the
		// last request has ended (or the server has torn the session down
		// over a malformed tail) and every reply byte queued has been
		// written — a pipe write returns once this side has read it —
		// then close.
		deadline := time.Now().Add(10 * time.Second)
		for {
			c := soleClient(srv)
			if (c == nil || !c.inRun.Load()) && srv.Snapshot().QueuedBytes == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("reply stream not flushed: %d bytes queued", srv.Snapshot().QueuedBytes)
			}
			runtime.Gosched()
		}
		nc.Close()
	}
	select {
	case replies := <-collected:
		return replies
	case <-time.After(10 * time.Second):
		t.Fatal("reply stream did not end")
		return nil
	}
}

// soleClient returns the server-side state of the one live connection,
// nil once it is gone.
func soleClient(srv *Server) *client {
	srv.clientMu.RLock()
	defer srv.clientMu.RUnlock()
	for c := range srv.clients {
		return c
	}
	return nil
}

// FuzzBatchFraming sends the same scripted request stream twice over TCP —
// once coalesced, as a single write through seeded fragmentation, so runs
// form at arbitrary packet boundaries; once in lockstep, one request per
// write, so every run has length one — and requires the two reply
// streams to agree byte for byte; a third, coalesced pass over a unix
// socket must agree with them too. Per-connection FIFO plus deterministic
// devices make the full reply stream — replies, staged concatenations,
// error messages, and the teardown point — a complete observational
// fingerprint of the dispatch path, so grouping cannot be observable.
// (TestHotPathGolden anchors the same streams to bytes recorded from the
// one-at-a-time dispatcher this path replaced.)
func FuzzBatchFraming(f *testing.F) {
	f.Add([]byte{}, int64(1))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6}, int64(2))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 16, 24, 32}, int64(3))
	f.Add([]byte{2, 18, 26, 2, 5, 0, 0, 6, 4, 12, 3, 1}, int64(4))
	f.Add(bytes.Repeat([]byte{0}, 64), int64(5))
	f.Add([]byte{4, 20, 36, 52, 5, 4, 0, 2}, int64(6))
	// Bulk plays framed in place: one, a vectored burst of three, one that
	// outgrows the ingress buffer and parks, and mixes whose small requests
	// and malformed or partial tails fall at the buffer's end.
	f.Add([]byte{0xfd, 0, 0xfd, 5}, int64(7))
	f.Add([]byte{0xfe, 0, 0xfe, 0xfe, 2, 0}, int64(8))
	f.Add([]byte{0, 0xff, 0, 4, 0xfd, 0}, int64(9))
	f.Add([]byte{0xff, 0xfe, 0xff, 18, 0xfd, 0xfe, 6, 0, 0xff, 1, 3}, int64(10))
	f.Add(append(bytes.Repeat([]byte{0xfe, 0, 26}, 5), 0xff, 5, 0xff), int64(11))
	f.Fuzz(func(t *testing.T, script []byte, seed int64) {
		if len(script) > 256 {
			script = script[:256]
		}
		if seed == 0 {
			seed = 1
		}
		stream := batchScript(script)
		want := batchReplyStream(t, stream, 0, true)
		got := batchReplyStream(t, stream, seed, false)
		if !bytes.Equal(got, want) {
			t.Fatalf("coalesced reply stream differs from lockstep:\ncoalesced %d bytes: %x\nlockstep  %d bytes: %x",
				len(got), got, len(want), want)
		}
		// Both socket transports serve inside the reader's read callback.
		if unix := batchReplyStreamOver(t, "unix", stream, seed, false); !bytes.Equal(unix, got) {
			t.Fatalf("coalesced reply stream differs between unix and TCP:\nunix %d bytes: %x\ntcp  %d bytes: %x",
				len(unix), unix, len(got), got)
		}
	})
}
