// BenchmarkRouterProxy prices the fleet router's splice: the same raw
// wire round trips against an afd directly and through the router. The
// proxied hot path is a pure byte splice through pooled buffers, so both
// modes must allocate nothing (TestRouterProxyAllocs), and the routed
// round trip should stay within ~2x of direct — the router adds two socket
// hops and nothing else.
package audiofile

import (
	"bufio"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"audiofile/aserver"
	"audiofile/internal/proto"
	"audiofile/internal/vdev"
)

// benchRouterConn dials the backend directly or through a router and
// completes the AF handshake, returning the raw wire.
func benchRouterConn(tb testing.TB, routed bool) (net.Conn, *bufio.Reader) {
	tb.Helper()
	clk := vdev.NewManualClock(8000)
	srv, err := aserver.New(aserver.Options{
		Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Clock: clk}},
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Close)
	bl, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { bl.Close() })
	target := bl.Addr().String()
	if routed {
		router, err := aserver.NewRouter(aserver.RouterOptions{
			Backends:      []string{target},
			ProbeInterval: 100 * time.Millisecond,
		})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(router.Close)
		rl, err := router.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		target = rl.Addr().String()
	}
	nc, err := net.Dial("tcp", target)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { nc.Close() })
	setup := proto.SetupRequest{
		ByteOrder: proto.LittleEndianOrder,
		Major:     proto.ProtocolMajor,
		Minor:     proto.ProtocolMinor,
	}
	if err := setup.Send(nc); err != nil {
		tb.Fatal(err)
	}
	br := bufio.NewReaderSize(nc, 64<<10)
	rep, err := proto.ReadSetupReply(br, binary.LittleEndian)
	if err != nil {
		tb.Fatal(err)
	}
	if !rep.Success {
		tb.Fatalf("setup refused: %s", rep.Reason)
	}
	return nc, br
}

// benchAwaitReply reads messages until a reply with the given sequence.
func benchAwaitReply(tb testing.TB, br *bufio.Reader, msg *proto.Message, seq uint16) {
	for {
		if err := proto.ReadMessageInto(br, binary.LittleEndian, msg); err != nil {
			tb.Fatal(err)
		}
		if msg.Reply != nil && msg.Reply.Seq == seq {
			return
		}
		if msg.Error != nil && msg.Error.Seq == seq {
			tb.Fatalf("request failed: code %d", msg.Error.Code)
		}
	}
}

// routerModes are BenchmarkRouterProxy's two paths to the backend.
var routerModes = []struct {
	name   string
	routed bool
}{
	{"direct", false},
	{"routed", true},
}

// routerGetTime returns one minimal round trip, GetTime: the per-message
// proxy overhead.
func routerGetTime(tb testing.TB, routed bool) func() {
	nc, br := benchRouterConn(tb, routed)
	var w proto.Writer
	w.Order = binary.LittleEndian
	if err := proto.AppendDeviceReq(&w, proto.OpGetTime, 0); err != nil {
		tb.Fatal(err)
	}
	req := w.Buf
	var msg proto.Message
	seq := uint16(0)
	return func() {
		if _, err := nc.Write(req); err != nil {
			tb.Fatal(err)
		}
		seq++
		benchAwaitReply(tb, br, &msg, seq)
	}
}

// routerPlay8kBytes is the play chunk routerPlay8k sends.
const routerPlay8kBytes = 8 << 10

// routerPlay8k returns one 8 KiB preemptive play chunk per round trip: the
// bulk splice path the proxied_bytes counters meter.
func routerPlay8k(tb testing.TB, routed bool) func() {
	nc, br := benchRouterConn(tb, routed)
	var w proto.Writer
	w.Order = binary.LittleEndian
	err := proto.AppendCreateAC(&w, proto.CreateACReq{
		AC:     1,
		Device: 0,
		Mask:   proto.ACPreemption,
		Attrs:  proto.ACAttributes{Preempt: 1},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := nc.Write(w.Buf); err != nil {
		tb.Fatal(err)
	}
	seq := uint16(1) // CreateAC consumed sequence 1
	data := make([]byte, routerPlay8kBytes)
	for i := range data {
		data[i] = byte(0x80 + i%64)
	}
	w.Reset()
	// Half a second ahead on a frozen manual clock: always in the buffer
	// window, never parked, rewritten every iteration by preemption.
	err = proto.AppendPlaySamples(&w, proto.PlaySamplesReq{
		AC:   1,
		Time: 4000,
		Data: data,
	})
	if err != nil {
		tb.Fatal(err)
	}
	req := w.Buf
	var msg proto.Message
	return func() {
		if _, err := nc.Write(req); err != nil {
			tb.Fatal(err)
		}
		seq++
		benchAwaitReply(tb, br, &msg, seq)
	}
}

func BenchmarkRouterProxy(b *testing.B) {
	for _, mode := range routerModes {
		b.Run(mode.name, func(b *testing.B) {
			b.Run("gettime", func(b *testing.B) {
				benchRoundTrip(b, 0, routerGetTime(b, mode.routed))
			})
			b.Run("play8k", func(b *testing.B) {
				benchRoundTrip(b, routerPlay8kBytes, routerPlay8k(b, mode.routed))
			})
		})
	}
}

// benchRoundTrip times rt, bytes moved per call (0 for none).
func benchRoundTrip(b *testing.B, bytes int64, rt func()) {
	if bytes != 0 {
		b.SetBytes(bytes)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt()
	}
}
