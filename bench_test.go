// Package audiofile's root benchmarks regenerate the paper's evaluation
// (Section 10), one benchmark per table and figure. Absolute numbers are
// hardware-bound; the shapes to check against the paper are:
//
//	Fig. 10 / BenchmarkGetTime      — local ≪ networked; delay-injected
//	                                  configs dominated by the wire.
//	Fig. 11 / BenchmarkRecordSamples — fixed overhead + linear per-byte
//	                                  cost, with steps at 8 KiB chunk
//	                                  boundaries (a reply per chunk).
//	Fig. 12 / BenchmarkPlayPreempt   — near-linear in size: replies are
//	                                  suppressed on all but the last chunk.
//	Fig. 13 / BenchmarkPlayMix       — like Fig. 12 plus per-sample mixing,
//	                                  always slower than preempt.
//	Tables 10/11                     — the same runs expressed as
//	                                  throughput (bytes/sec follows from
//	                                  ns/op at each size).
//	Table 12 / BenchmarkLoopback     — the open-loop record→play iteration,
//	                                  bounded by per-request overhead.
//
// The afperf command prints these as paper-style tables; see EXPERIMENTS.md.
package audiofile

import (
	"fmt"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/internal/rig"
)

// benchConfigs are the transport configurations standing in for the
// paper's host configurations. The delayed TCP variants are confined to
// the latency benchmark to keep -bench runs fast.
var benchConfigs = []rig.Config{
	{Name: "unix", Transport: "unix"},
	{Name: "tcp", Transport: "tcp"},
}

// BenchmarkGetTime is Figure 10: the AFGetTime round trip, the baseline
// cost of an AudioFile operation (8-byte request, minimal processing).
func BenchmarkGetTime(b *testing.B) {
	configs := append([]rig.Config{{Name: "pipe", Transport: "pipe"}}, benchConfigs...)
	configs = append(configs, rig.Config{Name: "tcp+1ms", Transport: "tcp", RTT: time.Millisecond})
	for _, cfg := range configs {
		b.Run(cfg.Name, func(b *testing.B) {
			r := rig.New(b, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Conn.GetTime(0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var transferSizes = []int{64, 1 << 10, 4 << 10, 8 << 10, 16 << 10, 24 << 10}

// BenchmarkRecordSamples is Figure 11: AFRecordSamples of various lengths
// that hit entirely in the server's record buffer and do not block. The
// jumps at 8 KiB multiples are the client library's chunking: each chunk
// is a synchronous round trip.
func BenchmarkRecordSamples(b *testing.B) {
	for _, cfg := range benchConfigs {
		b.Run(cfg.Name, func(b *testing.B) {
			r := rig.New(b, cfg)
			if err := r.PrimeRecord(); err != nil {
				b.Fatal(err)
			}
			now, err := r.AC.GetTime()
			if err != nil {
				b.Fatal(err)
			}
			for _, size := range transferSizes {
				b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
					buf := make([]byte, size)
					start := now.Add(-size)
					b.SetBytes(int64(size))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						_, n, err := r.AC.RecordSamples(start, buf, true)
						if err != nil || n != size {
							b.Fatalf("n=%d err=%v", n, err)
						}
					}
				})
			}
		})
	}
}

// playBench measures AFPlaySamples of various lengths landing in the
// buffered near future (never blocking), in mixing or preemptive mode.
func playBench(b *testing.B, preempt bool) {
	for _, cfg := range benchConfigs {
		b.Run(cfg.Name, func(b *testing.B) {
			r := rig.New(b, cfg)
			if preempt {
				if err := r.AC.ChangeAttributes(af.ACPreemption,
					af.ACAttributes{Preempt: true}); err != nil {
					b.Fatal(err)
				}
			}
			now, err := r.AC.GetTime()
			if err != nil {
				b.Fatal(err)
			}
			start := now.Add(4000) // half a second ahead; rewritten every iteration
			for _, size := range transferSizes {
				b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
					data := make([]byte, size)
					for i := range data {
						data[i] = byte(0x80 + i%64)
					}
					b.SetBytes(int64(size))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := r.AC.PlaySamples(start, data); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkPlayPreempt is Figure 12: preemptive play, the fastest path —
// data is copied into the server's play buffer, and replies are
// suppressed for all but the final chunk.
func BenchmarkPlayPreempt(b *testing.B) { playBench(b, true) }

// BenchmarkPlayMix is Figure 13: mixing play. The cost of mixing by the
// server is visible: mixing is always slower than preemptive play
// (Table 11).
func BenchmarkPlayMix(b *testing.B) { playBench(b, false) }

// BenchmarkLoopback is Table 12: the open-loop record/play test of
// §10.1.4 — read whatever samples are available without blocking, write
// them back immediately. The iteration rate is governed entirely by
// AudioFile overhead and bounds real-time audio handling.
func BenchmarkLoopback(b *testing.B) {
	for _, cfg := range benchConfigs {
		b.Run(cfg.Name, func(b *testing.B) {
			r := rig.New(b, cfg)
			if err := r.PrimeRecord(); err != nil {
				b.Fatal(err)
			}
			next, err := r.AC.GetTime()
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 8000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The device moves 20 ms per iteration (the clock is
				// manual, so this models a fast real-time loop).
				r.Clk.Advance(160)
				now, n, err := r.AC.RecordSamples(next, buf[:160], false)
				if err != nil {
					b.Fatal(err)
				}
				if n > 0 {
					if _, err := r.AC.PlaySamples(next.Add(4000), buf[:n]); err != nil {
						b.Fatal(err)
					}
				}
				next = now
			}
		})
	}
}

// BenchmarkServerMixing isolates the per-sample mixing cost inside the
// server (the Table 11 mixing-vs-preempt gap) without transport noise.
func BenchmarkServerMixing(b *testing.B) {
	r := rig.New(b, rig.Config{Name: "pipe", Transport: "pipe"})
	now, err := r.AC.GetTime()
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 8000)
	for i := range data {
		data[i] = byte(i)
	}
	start := now.Add(4000)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.AC.PlaySamples(start, data); err != nil {
			b.Fatal(err)
		}
	}
}
