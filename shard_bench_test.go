// BenchmarkShardScaling measures aggregate play throughput as root
// devices and clients multiply: N manual-clock CODEC devices, M clients
// over in-process pipes, each streaming preemptive 24 KiB plays (three
// 8 KiB chunks, replies suppressed on all but the last) at a fixed
// near-future device time so nothing ever blocks on audio time.
//
// Under the paper's single-threaded DIA every request from every client
// funnels through one dispatch goroutine, so the aggregate rate is flat
// in the number of devices. With the sharded data plane each root
// device's engine serves its own clients, so the aggregate rate should
// grow with device count (bounded by core count) and the per-request
// ingress cost (channel hops, allocations) drops out of the picture.
package audiofile

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/internal/rig"
	"audiofile/internal/vdev"
)

func BenchmarkShardScaling(b *testing.B) {
	const clients = 8
	const blockBytes = 24 << 10
	// The large rungs (256, 1024) measure the cost of *hosting* a big
	// fleet, not of spreading clients over it: the 8 clients play on the
	// first 8 devices while the other engines tick idle on the wheel.
	// Under the retired goroutine-per-engine design those rungs paid for
	// ~devices timer goroutines; on the wheel they cost shard batches.
	for _, devices := range []int{1, 2, 4, 256, 1024} {
		b.Run(fmt.Sprintf("devs=%d/clients=%d", devices, clients), func(b *testing.B) {
			// An N-device server and M pipe-connected clients, client i
			// bound to device i%N.
			specs := make([]aserver.DeviceSpec, devices)
			for i := range specs {
				specs[i] = aserver.DeviceSpec{Kind: "codec", Name: fmt.Sprintf("codec%d", i),
					Clock: vdev.NewManualClock(8000)}
			}
			srv := rig.Server(b, aserver.Options{Devices: specs})
			acs := make([]*af.AC, clients)
			for i := range acs {
				conn, err := rig.Client(srv.DialPipe())
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(conn.Close)
				if acs[i], err = conn.CreateAC(i%devices, af.ACPreemption, af.ACAttributes{Preempt: true}); err != nil {
					b.Fatal(err)
				}
			}
			data := make([]byte, blockBytes)
			for i := range data {
				data[i] = byte(0x80 + i%64)
			}
			// Fixed near-future start: far enough ahead that the whole
			// block fits under the buffer horizon, rewritten every
			// iteration (preemption makes re-plays cheap copies).
			now, err := acs[0].GetTime()
			if err != nil {
				b.Fatal(err)
			}
			start := now.Add(4000)
			b.SetBytes(blockBytes)
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			var firstErr rig.FirstError
			for _, ac := range acs {
				wg.Add(1)
				go func(ac *af.AC) {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := ac.PlaySamples(start, data); err != nil {
							firstErr.Fail(err)
							return
						}
					}
				}(ac)
			}
			wg.Wait()
			if err := firstErr.Err(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
