package aserver

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"audiofile/af"
	"audiofile/internal/atime"
	"audiofile/internal/proto"
	"audiofile/internal/vdev"
)

// The ingress buffer is borrowed, not owned: a socket's reader holds one
// only while request bytes are in flight, and the one thing that outlives
// a run — a parked play — owns a copy of its bytes.

// lent reads frame_bytes_in_flight, the bytes the ingress pool has lent.
func lent(srv *Server) int64 { return srv.Snapshot().FrameBytesInFlight }

// dispatched reads the request count: the sum of the dispatch batches.
func dispatched(srv *Server) uint64 { return srv.sm.dispatchBatch.Snapshot().Sum }

// outstanding reads an engine's parks not yet released, the releases
// first, so a park that starts and ends between the reads cannot drive
// it below zero.
func outstanding(e *engine) int64 {
	released := e.m.parksCompleted.Load() + e.m.parksDiscarded.Load()
	return int64(e.m.parksStarted.Load() - released)
}

// TestIdleSocketHoldsNoIngressBuffer: on a socket an idle connection pins
// no ingress buffer however many there are — on TCP too, where the reader
// waits without its speculative read — a half-sent request pins exactly
// one until it completes, and a disconnect mid-request returns it and is
// an ordinary client close.
func TestIdleSocketHoldsNoIngressBuffer(t *testing.T) {
	for _, network := range socketNetworks {
		t.Run(network, func(t *testing.T) {
			srv, _ := batchTestServer(t)
			addr := listenSocket(t, srv, network)
			for i := 0; i < 64; i++ {
				nc, br := dialSession(t, network, addr)
				if _, err := nc.Write(getTimeBurst(1, 0)); err != nil {
					t.Fatal(err)
				}
				var reply [proto.ReplyHeaderBytes]byte
				if _, err := io.ReadFull(br, reply[:]); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, "64 idle sockets to hold nothing", func() bool { return lent(srv) == 0 })

			nc, br := dialSession(t, network, addr)
			createAC, _ := backpressureScript(0)
			w := proto.Writer{Order: binary.LittleEndian}
			proto.AppendPlaySamples(&w, proto.PlaySamplesReq{AC: 1, Time: 4096, Data: make([]byte, 8<<10)}) //nolint:errcheck
			play, half := w.Buf, len(w.Buf)/2
			if _, err := nc.Write(append(createAC, play[:half]...)); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "a half-sent play to pin one buffer", func() bool { return lent(srv) == proto.IngressBytes })
			if _, err := nc.Write(play[half:]); err != nil {
				t.Fatal(err)
			}
			var msg proto.Message
			if err := proto.ReadMessageInto(br, binary.LittleEndian, &msg); err != nil || msg.Reply == nil {
				t.Fatalf("play ack: %+v, %v", msg, err)
			}
			waitFor(t, "the finished request to give the buffer back", func() bool { return lent(srv) == 0 })

			if _, err := nc.Write(play[:half]); err != nil { // never finished
				t.Fatal(err)
			}
			waitFor(t, "the second half-sent play to pin one buffer", func() bool { return lent(srv) == proto.IngressBytes })
			before := srv.Snapshot()
			nc.Close()
			waitFor(t, "the disconnect to be classified", func() bool { return srv.Snapshot().Disconnects == before.Disconnects+1 })
			after := srv.Snapshot()
			if after.FrameBytesInFlight != 0 || after.ClientCloses != before.ClientCloses+1 {
				t.Errorf("disconnect mid-request: %d ingress bytes still lent, client closes %d → %d",
					after.FrameBytesInFlight, before.ClientCloses, after.ClientCloses)
			}
		})
	}
}

// TestParkedPlayOwnsItsBytes: a play of pattern A fills the reader's
// ingress buffer to its last four bytes, so it is a run of its own, and
// parks with part of its data beyond the horizon. Reading ahead, the reader
// then takes the GetTimes and pattern-B plays behind it into the same
// buffer, over where A arrived. What the device plays for A's interval must
// still be A, replies keep request order, and the park law holds.
func TestParkedPlayOwnsItsBytes(t *testing.T) {
	clk := vdev.NewManualClock(8000)
	srv, err := New(Options{
		Devices: []DeviceSpec{{Kind: "codec", Clock: clk, Loopback: true, BufSeconds: 16}},
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc := dialRaw(t, srv)
	if nc == nil {
		t.FailNow()
	}
	defer nc.Close()
	replies := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(nc)
		replies <- b
	}()
	write := func(b []byte) {
		if _, err := nc.Write(b); err != nil {
			t.Error(err)
		}
	}
	// await steps the clock while the connection is parked and returns
	// once the server has dispatched want requests with none parked.
	d, e := srv.Device(0), srv.engineByDev[0]
	hw := d.Backend().HWFrames()
	now := func() atime.ATime {
		e.mu.Lock()
		defer e.mu.Unlock()
		return d.Now()
	}
	await := func(want uint64) {
		t.Helper()
		waitFor(t, "the requests to be dispatched", func() bool {
			if outstanding(e) != 0 {
				clk.Advance(hw)
				srv.Sync()
				return false
			}
			return dispatched(srv) == want
		})
	}

	w := proto.Writer{Order: binary.LittleEndian}
	proto.AppendCreateAC(&w, proto.CreateACReq{AC: 1, Device: 0, Mask: proto.ACPreemption, //nolint:errcheck
		Attrs: proto.ACAttributes{Preempt: 1}})
	// A device captures only while some context is recording.
	proto.AppendRecordSamples(&w, proto.RecordSamplesReq{AC: 1, NBytes: 4, Flags: proto.SampleFlagNoBlock}) //nolint:errcheck
	write(w.Buf)
	await(2)

	pattern := func(n int, base byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = base + byte(i%61)
		}
		return b
	}
	// A's request is proto.IngressBytes-4 long: the first read takes it and the
	// header of the GetTime behind it, which stays a partial tail. Its
	// first played frames fit the horizon, the rest park.
	const played = 8 << 10
	a := pattern(proto.IngressBytes-4-proto.PlayHeaderBytes, 0x10)
	start := atime.Add(now(), d.BufFrames()-hw-played)
	w.Buf = w.Buf[:0]
	proto.AppendPlaySamples(&w, proto.PlaySamplesReq{AC: 1, Time: uint32(start), Data: a}) //nolint:errcheck
	w.Buf = append(w.Buf, getTimeBurst(4, 0)...)
	b := pattern(16<<10, 0x90)
	for i := 0; i < 3; i++ { // > proto.IngressBytes of B, following A on the device
		proto.AppendPlaySamples(&w, proto.PlaySamplesReq{AC: 1, //nolint:errcheck
			Time: uint32(atime.Add(start, len(a)+i*len(b))), Data: b})
	}
	// A pipe has no buffer of its own: a write returns once the server's
	// reader has taken its last byte. The reader takes two full buffers'
	// worth — A, then what it reads ahead while A is parked — and waits
	// for the park before it takes more, so the return of the first write
	// is when A's bytes in the ingress buffer have been overwritten.
	ahead := 2*proto.IngressBytes - 4
	readAhead := make(chan struct{})
	go func() {
		write(w.Buf[:ahead])
		close(readAhead)
		write(w.Buf[ahead:])
	}()
	<-readAhead
	if n := outstanding(e); n != 1 {
		t.Fatalf("%d parks with A beyond the horizon, want 1", n)
	}
	// The park pins what remains of A, not the request it came in.
	if got, want := lent(srv), int64(proto.IngressBytes+len(a)-played); got != want {
		t.Errorf("%d ingress bytes lent with A parked, want the reader's buffer and A's unplayed %d: %d",
			got, len(a)-played, want)
	}
	await(2 + 1 + 4 + 3)
	end := atime.Add(start, len(a)+3*len(b))
	for atime.Before(now(), atime.Add(end, hw)) {
		clk.Advance(hw)
		srv.Sync()
	}

	ac, err := pipeConn(t, srv).CreateAC(0, 0, af.ACAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(a)+3*len(b))
	if _, n, err := ac.RecordSamples(af.ATime(start), got, false); err != nil || n != len(got) {
		t.Fatalf("recording what was played: %d of %d bytes, %v", n, len(got), err)
	}
	if !bytes.Equal(got[:len(a)], a) {
		at := 0
		for got[at] == a[at] {
			at++
		}
		t.Errorf("the device played something other than A from frame %d of A's interval: % x, want % x",
			at, got[at:min(at+8, len(a))], a[at:min(at+8, len(a))])
	}
	if !bytes.Equal(got[len(a):], bytes.Repeat(b, 3)) {
		t.Error("the device played something other than B behind A")
	}

	waitFor(t, "the replies to leave the queue", func() bool { return srv.Snapshot().QueuedBytes == 0 })
	nc.Close()
	br := bytes.NewReader(<-replies)
	var msg proto.Message
	for want := uint16(2); want <= 10; want++ { // CreateAC (seq 1) has no reply
		if err := proto.ReadMessageInto(br, binary.LittleEndian, &msg); err != nil || msg.Reply == nil || msg.Reply.Seq != want {
			t.Fatalf("reply %d: %+v, %v", want, msg, err)
		}
	}
	s := srv.Snapshot().Devices[0]
	if s.ParksStarted == 0 {
		t.Error("no park started")
	}
	if err := s.Check(true); err != nil {
		t.Error(err)
	}
}
