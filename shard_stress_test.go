// Concurrency tests for the sharded data plane: a multi-device,
// multi-client stress mix (including abrupt disconnects while a request
// is parked), a pinning test for per-connection FIFO ordering across the
// control and data planes, and a regression test for control-plane timer
// re-arming under sustained request load. All of these are meant to run
// under -race in CI.
package audiofile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/internal/proto"
	"audiofile/internal/vdev"
)

// TestShardStress runs a mixed Play/Record/GetTime workload from many
// clients across several root devices while a stepper advances the
// device clocks, with a subset of clients abruptly dropping their
// transport in the middle of a blocked (parked) record. The test's
// assertions are mostly implicit: no data race, no deadlock, no error on
// a surviving client, and a healthy server afterwards.
func TestShardStress(t *testing.T) {
	const devices = 3
	const healthy = 8
	const killers = 4
	const iters = 50

	clocks := make([]*vdev.ManualClock, devices)
	specs := make([]aserver.DeviceSpec, devices)
	for i := range specs {
		clocks[i] = vdev.NewManualClock(8000)
		specs[i] = aserver.DeviceSpec{
			Kind:     "codec",
			Name:     fmt.Sprintf("codec%d", i),
			Clock:    clocks[i],
			Loopback: true,
		}
	}
	srv, err := aserver.New(aserver.Options{Devices: specs, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	// Stepper: device time marches on while the clients hammer the
	// engines, resolving parked requests as it goes.
	stop := make(chan struct{})
	var stepWG sync.WaitGroup
	stepWG.Add(1)
	go func() {
		defer stepWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, clk := range clocks {
				clk.Advance(256)
			}
			srv.Sync()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	t.Cleanup(stepWG.Wait)
	t.Cleanup(func() { close(stop) })

	var firstErr atomic.Value
	fail := func(err error) {
		if err != nil {
			firstErr.CompareAndSwap(nil, err)
		}
	}

	var wg sync.WaitGroup
	// Healthy clients: a mixed op stream that must never error.
	for i := 0; i < healthy; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := af.NewConn(srv.DialPipe())
			if err != nil {
				fail(err)
				return
			}
			defer conn.Close()
			conn.SetIOErrorHandler(func(*af.Conn, error) {})
			var attrs af.ACAttributes
			mask := uint32(0)
			if i%2 == 0 {
				mask, attrs.Preempt = af.ACPreemption, true
			}
			ac, err := conn.CreateAC(i%devices, mask, attrs)
			if err != nil {
				fail(err)
				return
			}
			data := make([]byte, 4096)
			buf := make([]byte, 256)
			for j := 0; j < iters; j++ {
				now, err := ac.GetTime()
				if err != nil {
					fail(err)
					return
				}
				switch j % 3 {
				case 0:
					if _, err := ac.PlaySamples(now.Add(1024), data); err != nil {
						fail(err)
						return
					}
				case 1:
					// Blocking record slightly ahead of the clock: parks on
					// the engine until the stepper catches up.
					if _, _, err := ac.RecordSamples(now, buf, true); err != nil {
						fail(err)
						return
					}
				case 2:
					if _, err := ac.GetTime(); err != nil {
						fail(err)
						return
					}
				}
			}
		}(i)
	}

	// Killer clients: park a record that the stepper will not reach for a
	// long time, then drop the raw transport. The server must tear down
	// the park (releasing its pinned buffers and reader) via the
	// unregister path without disturbing anyone else.
	for i := 0; i < killers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nc := srv.DialPipe()
			conn, err := af.NewConn(nc)
			if err != nil {
				fail(err)
				return
			}
			conn.SetIOErrorHandler(func(*af.Conn, error) {})
			ac, err := conn.CreateAC(i%devices, 0, af.ACAttributes{})
			if err != nil {
				fail(err)
				return
			}
			now, err := ac.GetTime()
			if err != nil {
				fail(err)
				return
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				// Far enough ahead that the park is still live when the
				// transport drops; the error from the dead pipe is expected.
				buf := make([]byte, 256)
				ac.RecordSamples(now.Add(10_000_000), buf, true) //nolint:errcheck
			}()
			time.Sleep(5 * time.Millisecond)
			nc.Close()
			<-done
		}(i)
	}

	wg.Wait()
	if err := firstErr.Load(); err != nil {
		t.Fatal(err)
	}

	// The server must still be fully functional: fresh client, every
	// device answers, and a round trip drains cleanly.
	conn, err := af.NewConn(srv.DialPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetIOErrorHandler(func(*af.Conn, error) {})
	for d := 0; d < devices; d++ {
		if _, err := conn.GetTime(d); err != nil {
			t.Fatalf("device %d unhealthy after stress: %v", d, err)
		}
	}
	if err := conn.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossPlaneFIFO pins per-connection FIFO ordering across the two
// planes: engine-locked requests (GetTime) and ctl-locked requests
// (SyncConnection) interleaved on one connection's reader — each one a
// group of one, a lock taken and dropped — answer in exact submission
// order. The test speaks the wire protocol directly so it can pipeline
// the whole interleaved batch in one write.
func TestCrossPlaneFIFO(t *testing.T) {
	const pairs = 64
	srv, err := aserver.New(aserver.Options{
		Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Clock: vdev.NewManualClock(8000)}},
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	nc := srv.DialPipe()
	defer nc.Close()
	setup := &proto.SetupRequest{
		ByteOrder: proto.LittleEndianOrder,
		Major:     proto.ProtocolMajor,
		Minor:     proto.ProtocolMinor,
	}
	if err := setup.Send(nc); err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(nc)
	rep, err := proto.ReadSetupReply(rd, binary.LittleEndian)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Success {
		t.Fatalf("setup refused: %s", rep.Reason)
	}

	// Read replies concurrently with the pipelined write (net.Pipe is
	// unbuffered), recording the order the sequence numbers come back in.
	seqs := make(chan uint16, 2*pairs)
	readErr := make(chan error, 1)
	go func() {
		defer close(seqs)
		var msg proto.Message
		for i := 0; i < 2*pairs; i++ {
			err := proto.ReadMessageInto(rd, binary.LittleEndian, &msg)
			if err != nil {
				readErr <- err
				return
			}
			if msg.Reply == nil {
				readErr <- fmt.Errorf("message %d is not a reply: %+v", i, msg)
				return
			}
			seqs <- msg.Reply.Seq
		}
	}()

	w := &proto.Writer{Order: binary.LittleEndian}
	for i := 0; i < pairs; i++ {
		if err := proto.AppendDeviceReq(w, proto.OpGetTime, 0); err != nil {
			t.Fatal(err)
		}
		if err := proto.AppendEmptyReq(w, proto.OpSyncConnection, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nc.Write(w.Buf); err != nil {
		t.Fatal(err)
	}

	want := uint16(1)
	for seq := range seqs {
		if seq != want {
			t.Fatalf("reply out of order: got seq %d, want %d", seq, want)
		}
		want++
	}
	select {
	case err := <-readErr:
		t.Fatal(err)
	default:
	}
	if want != 2*pairs+1 {
		t.Fatalf("got %d replies, want %d", want-1, 2*pairs)
	}
}
