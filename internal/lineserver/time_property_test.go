package lineserver

import (
	"math/rand"
	"testing"
	"time"

	"audiofile/internal/atime"
	"audiofile/internal/netsim"
	"audiofile/internal/vdev"
)

// Property tests for Backend.Time under a jittering transport: replies
// duplicated and reordered (a reordered reply is an old timestamp
// arriving late). The properties:
//
//   - Monotonic: the estimate never runs backwards, in wrapped time,
//     no matter which stragglers arrive.
//   - Bounded drift: the estimate never runs ahead of the device's true
//     clock by more than the extrapolation window allows.
//
// Both modes are covered: NoExtrapolate (every call pings; a
// manual clock gives an exact upper bound) and extrapolation (a real
// clock; drift is bounded against the test's own wall clock).

// jitterFaults is the reply-path schedule: duplicates and reorder holds
// but no loss, so every request is eventually answered and old
// timestamps keep arriving late.
func jitterFaults(seed int64) *netsim.PacketFaultConfig {
	return &netsim.PacketFaultConfig{
		Seed: seed,
		Egress: netsim.PacketFaultRates{
			Dup: 0.3, Reorder: 0.3, ReorderSpan: 1,
		},
	}
}

func TestTimeMonotonicNoExtrapolation(t *testing.T) {
	clk := vdev.NewManualClock(8000)
	fw, err := NewFirmware(FirmwareConfig{Clock: clk, Faults: jitterFaults(1993)})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	b, err := Dial(fw.Addr(), 8000, Config{NoExtrapolate: true, Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	rng := rand.New(rand.NewSource(7))
	last := b.Time()
	for i := 0; i < 150; i++ {
		clk.Advance(rng.Intn(400))
		got := b.Time()
		if atime.Before(got, last) {
			t.Fatalf("iteration %d: Time ran backwards %d -> %d", i, last, got)
		}
		// Without extrapolation the estimate is always a timestamp some
		// reply actually carried, so it can never pass the device clock.
		if now := clk.Ticks(); atime.After(got, now) {
			t.Fatalf("iteration %d: Time %d ahead of device clock %d", i, got, now)
		}
		last = got
	}
	if st := b.Stats(); st.Stale == 0 && st.Duplicate == 0 {
		t.Error("jitter schedule produced no stale or duplicate replies; the property was not exercised")
	}
}

func TestTimeMonotonicBoundedDriftExtrapolated(t *testing.T) {
	clk := vdev.NewRealClock(8000, 0)
	fw, err := NewFirmware(FirmwareConfig{Clock: clk, Faults: jitterFaults(2026)})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	b, err := Dial(fw.Addr(), 8000, Config{Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Reference: the backend's first estimate plus wall time at 8 kHz.
	// The tolerance covers reply latency, extrapolation granularity, and
	// scheduler noise far beyond what CI exhibits.
	const tolerance = 8000 // one second of frames
	start := time.Now()
	base := b.Time()
	last := base
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		time.Sleep(time.Duration(rng.Intn(8)) * time.Millisecond)
		got := b.Time()
		if atime.Before(got, last) {
			t.Fatalf("iteration %d: extrapolated Time ran backwards %d -> %d", i, last, got)
		}
		expect := atime.Add(base, int(time.Since(start).Seconds()*8000))
		if d := atime.Sub(got, expect); d > tolerance || d < -tolerance {
			t.Fatalf("iteration %d: Time %d drifted %d frames from wall-clock reference %d", i, got, d, expect)
		}
		last = got
	}
}
