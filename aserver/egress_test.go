package aserver

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"audiofile/internal/proto"
)

// TestReadingClientErrorFloodNotEvicted pins that message count alone
// never evicts: a client that pipelines thousands of bad one-word
// requests and only then reads has that many one-message error replies
// queued — far over budget by level — and must get all of them, because
// it drains inside its grace. On one P the server always runs ahead of
// the client's reader, which is how a draining client used to die at
// the 1024-message cap.
func TestReadingClientErrorFloodNotEvicted(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, err := New(Options{
		Devices: []DeviceSpec{{Kind: "codec"}},
		Logf:    func(string, ...any) {},
		// Generous, so a loaded machine cannot fail the reading side; the
		// point is that there is no judge other than budget + grace.
		EvictGrace: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc := dialRaw(t, srv)
	if nc == nil {
		return
	}
	defer nc.Close()

	const n = 4000
	reqs := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		reqs[4*i] = 0xF0                               // no such opcode: ErrRequest from the control path
		binary.LittleEndian.PutUint16(reqs[4*i+2:], 1) // header only
	}
	// The pipe is synchronous: Write returns once the server's reader has
	// taken every request, so nearly all n replies are queued by now.
	if _, err := nc.Write(reqs); err != nil {
		t.Fatalf("write flood: %v", err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	replies := make([]byte, proto.EventBytes*n)
	if got, err := io.ReadFull(nc, replies); err != nil {
		t.Fatalf("read %d of %d error replies: %v (evictions=%d)",
			got/proto.EventBytes, n, err, srv.Snapshot().Evictions)
	}
	for i := 0; i < n; i++ {
		if m := replies[proto.EventBytes*i:]; m[0] != proto.MsgError || m[1] != proto.ErrRequest {
			t.Fatalf("reply %d: kind %d code %d, want a Request error", i, m[0], m[1])
		}
	}
	if s := srv.Snapshot(); s.Evictions != 0 || s.Sheds != 0 {
		t.Errorf("reading client: evictions=%d sheds=%d, want 0", s.Evictions, s.Sheds)
	}
}

// closeClient does to a harness client what removeClient does to a
// registered one's write side: marks it dead, releases a parked reader and
// starts the writer that says goodbye.
func closeClient(c *client) {
	c.dead.Store(true)
	close(c.closed)
	c.startWriter()
}

// TestSendersRaceTeardown races every kind of sender — replies, events,
// and a broadcast message shared with a second client's queue — against
// eviction and against client close. Whoever wins, each message is
// either written or refused and released exactly once (a double release
// panics), and once the writers have exited no byte is left on the
// books.
func TestSendersRaceTeardown(t *testing.T) {
	srv, err := New(Options{
		Devices: []DeviceSpec{{Kind: "codec"}},
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// start makes a client whose writers (started by its sends) write to
	// a far end that reads everything, and returns the client and the
	// close of its conn, the last act of the writer that says goodbye.
	start := func() (*client, <-chan struct{}) {
		p1, p2 := net.Pipe()
		c := newClient(srv, p1, binary.LittleEndian)
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			io.Copy(io.Discard, p2) //nolint:errcheck
			p2.Close()
		}()
		return c, exited
	}

	for round := 0; round < 40; round++ {
		victim, victimExited := start()
		peer, peerExited := start()
		stop := make(chan struct{})
		var senders sync.WaitGroup
		sender := func(send func()) {
			senders.Add(1)
			go func() {
				defer senders.Done()
				for {
					select {
					case <-stop:
						return
					default:
						send()
						runtime.Gosched() // pace: the pipes are synchronous
					}
				}
			}()
		}
		sender(func() { victim.sendReply(&proto.Reply{}, 1) })
		sender(func() { victim.sendEvent(&proto.Event{Code: proto.EventPropertyChange}) })
		sender(func() {
			m := getMsg("broadcast")
			msgBytes(m, proto.BroadcastHeaderBytes+64)
			m.retain(1)
			victim.send(m)
			peer.send(m)
		})

		time.Sleep(time.Duration(round%4) * 100 * time.Microsecond)
		if round%2 == 0 {
			victim.evict(closeReasonEvict, proto.ErrOverload, "test")
		} else {
			closeClient(victim)
		}
		// Senders keep going past the writer's exit: pushes onto the
		// closed queue must be refused, not stranded.
		<-victimExited
		time.Sleep(100 * time.Microsecond)
		close(stop)
		senders.Wait()
		closeClient(peer)
		<-peerExited

		for _, c := range []*client{victim, peer} {
			if queued, level := c.out.load(); queued != 0 || level != 0 {
				t.Fatalf("round %d: queue left %d bytes (level %d) after its writer exited", round, queued, level)
			}
		}
		if q := srv.Snapshot().QueuedBytes; q != 0 {
			t.Fatalf("round %d: server-wide queued bytes %d after both writers exited", round, q)
		}
	}
}
