package aserver

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"testing"

	"audiofile/internal/proto"
)

// Hot-path throughput benchmarks. BenchmarkSmallOpFlood drives the full
// server path (framing, dispatch, reply egress) with small ops at two
// input shapes: pipelined bursts, which coalesce into dispatch groups,
// and strict request/reply alternation, where every group has length
// one. Both are allocation gates (allocs_test.go): the steady state must
// not allocate per request.

// smallOpBursts are BenchmarkSmallOpFlood's burst sizes.
var smallOpBursts = []int{32, 1}

// smallOpFlood readies a real connection (handshake, reader goroutine,
// writer goroutine) and returns one cycle of its traffic: 32 requests
// alternating GetTimes and 64-byte plays at the frozen device time (mixed
// in place, never parked), burst requests per write, every reply read
// before the next write.
func smallOpFlood(tb testing.TB, burst int) func() {
	srv, clk := batchTestServer(tb)
	clk.Advance(4096)
	srv.Sync()
	conn := srv.DialPipe()
	tb.Cleanup(func() { conn.Close() })
	br := bufio.NewReader(conn)
	handshake(tb, conn, br)

	w := proto.Writer{Order: binary.LittleEndian}
	if err := proto.AppendCreateAC(&w, proto.CreateACReq{AC: 1, Device: 0}); err != nil {
		tb.Fatal(err)
	}
	if _, err := conn.Write(w.Buf); err != nil {
		tb.Fatal(err)
	}

	var writes [][]byte
	data := make([]byte, 64)
	for i := 0; i < smallOpCycle; i += burst {
		w := proto.Writer{Order: binary.LittleEndian}
		for k := i; k < i+burst; k++ {
			var err error
			if k%2 == 0 {
				err = proto.AppendDeviceReq(&w, proto.OpGetTime, 0)
			} else {
				err = proto.AppendPlaySamples(&w, proto.PlaySamplesReq{
					AC: 1, Time: 4096, Data: data,
				})
			}
			if err != nil {
				tb.Fatal(err)
			}
		}
		writes = append(writes, w.Buf)
	}

	var msg proto.Message
	return func() {
		for _, buf := range writes {
			if _, err := conn.Write(buf); err != nil {
				tb.Fatal(err)
			}
			for i := 0; i < burst; i++ {
				if err := proto.ReadMessageInto(br, binary.LittleEndian, &msg); err != nil {
					tb.Fatal(err)
				}
				if msg.Reply == nil {
					tb.Fatalf("want reply, got %+v", msg)
				}
			}
		}
	}
}

// smallOpCycle is the requests in one smallOpFlood cycle.
const smallOpCycle = 32

// BenchmarkSmallOpFlood pumps smallOpFlood's cycles. One benchmark
// iteration is one request, so ops/sec compares directly across the
// burst sizes.
func BenchmarkSmallOpFlood(b *testing.B) {
	for _, burst := range smallOpBursts {
		b.Run(fmt.Sprintf("burst=%d", burst), func(b *testing.B) {
			cycle := smallOpFlood(b, burst)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += smallOpCycle {
				cycle()
			}
		})
	}
}

// dispatchBatches are BenchmarkDispatchBatch's group sizes: sixteen
// GetTimes served as one group (one lock acquisition, one staged message)
// and as sixteen groups of one (a lock and a message each).
var dispatchBatches = []struct {
	name string
	size int
}{{"group16", 16}, {"group1x16", 1}}

// dispatchBatch returns one pass of sixteen GetTimes through
// dispatchHotGroup in groups of size, drained.
func dispatchBatch(tb testing.TB, size int) func() {
	srv, c, clk := benchServer(tb)
	clk.Advance(4096)
	body := make([]byte, 4) // device 0 in either byte order
	run := make([]runFrame, 16)
	for i := range run {
		run[i] = runFrame{op: proto.OpGetTime, body: body}
	}
	return func() {
		for k := 0; k < len(run); k += size {
			srv.dispatchHotGroup(c, run[k:k+size])
		}
		drainOut(c)
	}
}

// BenchmarkDispatchBatch isolates the dispatch layer. One iteration is
// one request.
func BenchmarkDispatchBatch(b *testing.B) {
	for _, bc := range dispatchBatches {
		b.Run(bc.name, func(b *testing.B) {
			pass := dispatchBatch(b, bc.size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += 16 {
				pass()
			}
		})
	}
}
