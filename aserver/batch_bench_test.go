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
// one. Both are allocation gates: the steady state must not allocate per
// request.

// BenchmarkSmallOpFlood pumps GetTimes and 64-byte plays through a real
// connection (handshake, reader goroutine, writer goroutine), burst
// requests per write, and reads every reply before the next write. One
// benchmark iteration is one request, so ops/sec compares directly
// across the burst sizes.
func BenchmarkSmallOpFlood(b *testing.B) {
	for _, burst := range []int{32, 1} {
		b.Run(fmt.Sprintf("burst=%d", burst), func(b *testing.B) {
			srv, clk := batchTestServer(b)
			clk.Advance(4096)
			srv.Sync()
			conn := srv.DialPipe()
			defer conn.Close()
			br := bufio.NewReader(conn)
			handshake(b, conn, br)

			w := proto.Writer{Order: binary.LittleEndian}
			if err := proto.AppendCreateAC(&w, proto.CreateACReq{AC: 1, Device: 0}); err != nil {
				b.Fatal(err)
			}
			if _, err := conn.Write(w.Buf); err != nil {
				b.Fatal(err)
			}

			// One cycle of traffic: 32 requests alternating GetTimes and
			// 64-byte plays at the frozen device time (mixed in place,
			// never parked), cut into writes of burst requests each.
			const cycle = 32
			var writes [][]byte
			data := make([]byte, 64)
			for i := 0; i < cycle; i += burst {
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
						b.Fatal(err)
					}
				}
				writes = append(writes, w.Buf)
			}

			var msg proto.Message
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				for _, buf := range writes {
					if _, err := conn.Write(buf); err != nil {
						b.Fatal(err)
					}
					for i := 0; i < burst; i++ {
						if err := proto.ReadMessageInto(br, binary.LittleEndian, &msg); err != nil {
							b.Fatal(err)
						}
						if msg.Reply == nil {
							b.Fatalf("want reply, got %+v", msg)
						}
					}
					done += burst
				}
			}
		})
	}
}

// BenchmarkDispatchBatch isolates the dispatch layer: sixteen GetTimes
// served as one group (one lock acquisition, one staged message) versus
// sixteen groups of one (a lock and a message each). One iteration is
// one request.
func BenchmarkDispatchBatch(b *testing.B) {
	body := make([]byte, 4) // device 0 in either byte order
	run := make([]runFrame, 16)
	for i := range run {
		run[i] = runFrame{op: proto.OpGetTime, body: body}
	}
	for _, bc := range []struct {
		name string
		size int
	}{{"group16", 16}, {"group1x16", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			srv, c, clk, cleanup := benchServer(b)
			defer cleanup()
			clk.Advance(4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(run) {
				for k := 0; k < len(run); k += bc.size {
					srv.dispatchHotGroup(c, run[k:k+bc.size])
				}
				drainOut(c)
			}
		})
	}
}
