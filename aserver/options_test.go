package aserver

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/internal/metrics"
	"audiofile/internal/proto"
	"audiofile/internal/vdev"
)

// The Options audit (DESIGN.md, "Options"): every field names a test that
// fails when the server ignores it. These are the fields no other test
// pins.

func optionServer(t *testing.T, opts Options) *Server {
	t.Helper()
	opts.Devices = []DeviceSpec{{Kind: "codec", Clock: vdev.NewManualClock(8000)}}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func pipeConn(t *testing.T, srv *Server) *af.Conn {
	t.Helper()
	c, err := af.NewConn(srv.DialPipe())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetIOErrorHandler(func(*af.Conn, error) {})
	return c
}

// wedge opens a raw session that pipelines n GetTime requests and never
// reads a reply: its replies pile up in its egress queue.
func wedge(t *testing.T, srv *Server, n int) {
	t.Helper()
	nc := dialRaw(t, srv)
	if nc == nil {
		t.FailNow()
	}
	t.Cleanup(func() { nc.Close() })
	w := proto.Writer{Order: binary.LittleEndian}
	for i := 0; i < n; i++ {
		proto.AppendDeviceReq(&w, proto.OpGetTime, 0) //nolint:errcheck
	}
	nc.Write(w.Buf) //nolint:errcheck — fails if the server closes it first
}

// awaitSheds waits for the server to shed want clients, then a few sweeps
// more, and reports the snapshot.
func awaitSheds(srv *Server, want uint64) Snapshot {
	for deadline := time.Now().Add(5 * time.Second); srv.Snapshot().Sheds < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * srv.budget.sweepEvery)
	return srv.Snapshot()
}

// TestOptionMaxClients: registering past MaxClients sheds the oldest-idle
// client, classified as a shed; without the option nobody is shed. The
// shed's event is printed through Logf (TestOptionLogf, in effect).
func TestOptionMaxClients(t *testing.T) {
	for _, max := range []int{0, 2} {
		var mu sync.Mutex
		var logged []string
		srv := optionServer(t, Options{MaxClients: max, Logf: func(format string, args ...any) {
			mu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			mu.Unlock()
		}})
		oldest, newer := pipeConn(t, srv), pipeConn(t, srv)
		if err := oldest.Sync(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond) // lastActive is wall time
		if err := newer.Sync(); err != nil {
			t.Fatal(err)
		}
		newest := pipeConn(t, srv)
		if err := newest.Sync(); err != nil {
			t.Fatalf("MaxClients %d: the newcomer was not admitted: %v", max, err)
		}
		wantSheds := uint64(0)
		if max != 0 {
			wantSheds = 1
		}
		deadline := time.Now().Add(5 * time.Second)
		for srv.Snapshot().Disconnects != wantSheds && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		snap := srv.Snapshot()
		if snap.Sheds != wantSheds || snap.Disconnects != wantSheds || snap.Evictions != 0 {
			t.Fatalf("MaxClients %d with 3 clients: %d sheds, %d evictions, %d disconnects; want %d sheds",
				max, snap.Sheds, snap.Evictions, snap.Disconnects, wantSheds)
		}
		if err := newer.Sync(); err != nil {
			t.Errorf("MaxClients %d: the more recently active client was shed: %v", max, err)
		}
		if err := oldest.Sync(); (err != nil) != (max != 0) {
			t.Errorf("MaxClients %d: oldest-idle client's next request: %v", max, err)
		}
		mu.Lock()
		if said := strings.Contains(strings.Join(logged, "\n"), "shedding oldest-idle client"); said != (max != 0) {
			t.Errorf("MaxClients %d: Logf received %q", max, logged)
		}
		mu.Unlock()
	}
}

// TestOptionServerQueueBytes: two wedged consumers, each inside its own
// (unlimited) budget, together exceed the server-wide queued-bytes
// ceiling; the sweep closes the larger queue as a shed. With the default
// ceiling nothing happens.
func TestOptionServerQueueBytes(t *testing.T) {
	for _, ceiling := range []int64{0, 8 << 10} {
		srv := optionServer(t, Options{
			ClientQueueBytes: -1,
			ServerQueueBytes: ceiling,
			EvictGrace:       20 * time.Millisecond,
		})
		wedge(t, srv, 400) // 16 bytes a reply
		wedge(t, srv, 440)
		for deadline := time.Now().Add(5 * time.Second); srv.Snapshot().Requests < 840; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of 840 requests dispatched", srv.Snapshot().Requests)
			}
		}
		want := uint64(0)
		if ceiling != 0 {
			want = 1
		}
		if snap := awaitSheds(srv, want); snap.Sheds != want || snap.Evictions != 0 {
			t.Errorf("ServerQueueBytes %d: %d sheds, %d evictions; want %d sheds", ceiling, snap.Sheds, snap.Evictions, want)
		}
	}
}

// TestOptionFrameBytesCeiling: a parked play pins a copy of its 8 KiB of
// unplayed data and each open pipe connection its ingress buffer; over
// the ceiling the sweep sheds the oldest-idle client, and then the parker
// itself, which releases the copy. With the default ceiling nobody is
// shed, and the gauge reads exactly what is pinned.
func TestOptionFrameBytesCeiling(t *testing.T) {
	for _, ceiling := range []int64{0, 4 << 10} {
		srv := optionServer(t, Options{
			FrameBytesCeiling: ceiling,
			EvictGrace:        20 * time.Millisecond,
		})
		idle := pipeConn(t, srv)
		if err := idle.Sync(); err != nil {
			t.Fatal(err)
		}
		ac, err := pipeConn(t, srv).CreateAC(0, 0, af.ACAttributes{})
		if err != nil {
			t.Fatal(err)
		}
		now, err := ac.GetTime()
		if err != nil {
			t.Fatal(err)
		}
		// A play whose tail lies beyond the buffer horizon parks.
		go ac.PlaySamples(now.Add(srv.Device(0).BufFrames()), make([]byte, 8<<10)) //nolint:errcheck
		for srv.Snapshot().Devices[0].ParkedNow == 0 {
			time.Sleep(time.Millisecond)
		}
		if ceiling == 0 {
			// The play's data — all of it lies beyond the horizon — and
			// not its 12-byte request body around it.
			waitFor(t, "two pipe buffers and the parked data to be all that is lent", func() bool {
				return srv.Snapshot().FrameBytesInFlight == 2*proto.IngressBytes+8<<10
			})
		}
		want := uint64(0)
		if ceiling != 0 {
			want = 2
		}
		snap := awaitSheds(srv, want)
		if snap.Sheds != want || (want != 0 && snap.FrameBytesInFlight > ceiling) {
			t.Errorf("FrameBytesCeiling %d: %d sheds, %d frame bytes in flight; want %d sheds",
				ceiling, snap.Sheds, snap.FrameBytesInFlight, want)
		}
		srv.Close() // releases a play still parked, and with it its connection
	}
}

// TestOptionLogfNil: a nil Logf discards the event lines; nothing reaches
// the standard logger, and the event still reaches the log.
func TestOptionLogfNil(t *testing.T) {
	var out bytes.Buffer
	log.SetOutput(&out)
	defer log.SetOutput(os.Stderr)
	srv, err := New(Options{Devices: []DeviceSpec{{Kind: "codec", Clock: vdev.NewManualClock(8000)}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pipeConn(t, srv)
	waitFor(t, "registration", func() bool { return srv.Snapshot().Connects == 1 })
	srv.shedOldestIdle(nil)
	if evs := srv.Snapshot().Events.Events; len(evs) != 1 || evs[0].Kind != metrics.Shed || out.Len() != 0 {
		t.Errorf("events %+v; the standard logger received %q", evs, out.String())
	}
}

// TestOptionAccessControl: the option enables host checking at start-up,
// so a host deleted from the access list (ChangeHosts) is refused at setup
// without anyone sending SetAccessControl — and is not when it is unset.
func TestOptionAccessControl(t *testing.T) {
	for _, on := range []bool{false, true} {
		srv := optionServer(t, Options{AccessControl: on})
		l, err := srv.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		admin := pipeConn(t, srv) // local connections are always allowed
		enabled, hosts, err := admin.ListHosts()
		if err != nil || enabled != on {
			t.Fatalf("AccessControl %v: ListHosts reports enabled=%v, %v", on, enabled, err)
		}
		if err := admin.RemoveHosts(hosts); err != nil {
			t.Fatal(err)
		}
		if err := admin.Sync(); err != nil {
			t.Fatal(err)
		}
		nc, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c, err := af.NewConn(nc)
		if err == nil {
			c.Close()
		} else {
			nc.Close()
		}
		if refused := err != nil; refused != on {
			t.Errorf("AccessControl %v: loopback TCP setup after its host entry was deleted: %v", on, err)
		}
	}
}
