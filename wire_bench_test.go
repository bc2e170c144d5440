package audiofile

import (
	"fmt"
	"testing"

	"audiofile/af"
	"audiofile/internal/rig"
)

// benchConfigs are the socket transports BenchmarkWireThroughput and its
// allocation gate run over. The delayed TCP variants are afperf's.
var benchConfigs = []rig.Config{
	{Name: "unix", Transport: "unix"},
	{Name: "tcp", Transport: "tcp"},
}

// wireBytes is BenchmarkWireThroughput's payload: three protocol chunks.
const wireBytes = 24 << 10

// wireCalls are BenchmarkWireThroughput's two directions. Each readies a
// fresh rig of cfg and returns one call: the full PlaySamples egress path
// (client request marshal, socket, server ingress, play buffer) and the
// full RecordSamples ingress path (record ring, reply marshal, socket,
// client buffer).
var wireCalls = []struct {
	name  string
	ready func(testing.TB, rig.Config) func() error
}{
	{"play", wirePlay},
	{"record", wireRecord},
}

func wirePlay(tb testing.TB, cfg rig.Config) func() error {
	r := rig.New(tb, cfg)
	if err := r.AC.ChangeAttributes(af.ACPreemption,
		af.ACAttributes{Preempt: true}); err != nil {
		tb.Fatal(err)
	}
	now, err := r.AC.GetTime()
	if err != nil {
		tb.Fatal(err)
	}
	start := now.Add(4000)
	data := make([]byte, wireBytes)
	for i := range data {
		data[i] = byte(0x80 + i%64)
	}
	return func() error {
		_, err := r.AC.PlaySamples(start, data)
		return err
	}
}

func wireRecord(tb testing.TB, cfg rig.Config) func() error {
	r := rig.New(tb, cfg)
	if err := r.PrimeRecord(); err != nil {
		tb.Fatal(err)
	}
	now, err := r.AC.GetTime()
	if err != nil {
		tb.Fatal(err)
	}
	buf := make([]byte, wireBytes)
	start := now.Add(-wireBytes)
	return func() error {
		_, n, err := r.AC.RecordSamples(start, buf, true)
		if err == nil && n != wireBytes {
			err = fmt.Errorf("recorded %d bytes, want %d", n, wireBytes)
		}
		return err
	}
}

// BenchmarkWireThroughput measures the bulk sample transport end to end
// over real sockets (wireCalls) at a 24 KiB payload. This is the
// benchmark the scatter-gather wire path is judged by: every copy between
// the device ring buffer and the socket shows up directly in MB/s here.
// TestWireThroughputAllocs holds the same calls to 0 allocations.
func BenchmarkWireThroughput(b *testing.B) {
	for _, cfg := range benchConfigs {
		b.Run(cfg.Name, func(b *testing.B) {
			for _, wc := range wireCalls {
				b.Run(wc.name, func(b *testing.B) {
					call := wc.ready(b, cfg)
					b.SetBytes(wireBytes)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := call(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}
