// Lineserver chaos soak: the networked DDA versus a hostile datagram
// network. A matrix of seeded fault profiles — clean, random loss,
// duplication+reordering, burst blackouts, and everything at once — is
// injected at the simulated box's socket while a play/record workload
// streams simulated minutes of audio across the UDP protocol on a
// manual clock. The assertions are the resilience contract from
// ROADMAP item 5:
//
//   - Audio flows gap-bounded: a floor on the fraction delivered intact
//     and a ceiling on the longest all-silence run, per profile.
//   - Silence, never garbage: every delivered byte is either the exact
//     pattern played or µ-law silence (0xFF). Stale and duplicated
//     replies must not corrupt audio.
//   - The backend never wedges: the whole profile completes under a
//     watchdog, timeouts notwithstanding.
//   - The books balance exactly once the backend is closed:
//     resyncs_started == resyncs_completed + resyncs_abandoned; live
//     snapshots satisfy the one-sided form throughout. The fault layer's own packet
//     accounting (netsim) must conserve too.
//   - Goroutines settle back to the baseline after close: no leaked
//     healer, firmware, or fault-layer goroutines.
//
// CHAOS_SEED selects the fault schedule (CI runs a small seed matrix);
// CHAOS_SUMMARY, when set, appends a per-profile recovery-counter
// summary for the build artifact.
package audiofile

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"audiofile/aserver"
	"audiofile/internal/atime"
	"audiofile/internal/health"
	"audiofile/internal/lineserver"
	"audiofile/internal/netsim"
	"audiofile/internal/rig"
	"audiofile/internal/sampleconv"
	"audiofile/internal/vdev"
)

// chaosProfile is one cell of the fault matrix.
type chaosProfile struct {
	name    string
	ingress netsim.PacketFaultRates // requests arriving at the box
	egress  netsim.PacketFaultRates // replies leaving the box

	minIntact   float64 // floor on the intact-audio fraction
	maxGapIters int     // ceiling on consecutive all-silence iterations
	wantResyncs bool    // profile must push the backend through a resync
	wantStale   bool    // profile must produce stale or duplicate replies
}

var chaosMatrix = []chaosProfile{
	{
		name:      "clean",
		minIntact: 0.90, maxGapIters: 20,
	},
	{
		name:    "lossy",
		ingress: netsim.PacketFaultRates{Loss: 0.25},
		egress:  netsim.PacketFaultRates{Loss: 0.25},
		// Intact needs the play request and the whole record round trip
		// to survive: roughly (1-p)^3 ≈ 0.42 at p=0.25.
		minIntact: 0.15, maxGapIters: 100,
	},
	{
		name:      "dup-reorder",
		ingress:   netsim.PacketFaultRates{Dup: 0.3, Reorder: 0.3, ReorderSpan: 2},
		egress:    netsim.PacketFaultRates{Dup: 0.3, Reorder: 0.3, ReorderSpan: 2},
		minIntact: 0.20, maxGapIters: 100,
		wantStale: true,
	},
	{
		name:    "blackout",
		ingress: netsim.PacketFaultRates{BlackoutEvery: 150, BlackoutLen: 40},
		egress:  netsim.PacketFaultRates{BlackoutEvery: 200, BlackoutLen: 30},
		// Repeated 40-packet deaf spells must drive the health loop
		// through resyncing and back.
		minIntact: 0.25, maxGapIters: 180,
		wantResyncs: true,
	},
	{
		name:      "hostile",
		ingress:   netsim.PacketFaultRates{Loss: 0.15, Dup: 0.15, Reorder: 0.15, ReorderSpan: 2, BlackoutEvery: 250, BlackoutLen: 40},
		egress:    netsim.PacketFaultRates{Loss: 0.15, Dup: 0.15, Reorder: 0.15, ReorderSpan: 2},
		minIntact: 0.05, maxGapIters: 250,
		wantResyncs: true, wantStale: true,
	},
}

// chaosSeed returns the run's fault-schedule seed (CHAOS_SEED, default 1).
func chaosSeed(t *testing.T) int64 {
	s := os.Getenv("CHAOS_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q: %v", s, err)
	}
	return v
}

// chaosResult is what the driver goroutine hands back to the test
// goroutine (which owns all assertions).
type chaosResult struct {
	intact     uint64 // bytes delivered matching the played pattern
	silent     uint64 // bytes delivered as µ-law silence
	corrupt    uint64 // bytes that are neither — must be zero
	maxGap     int    // longest run of all-silence iterations
	liveLawErr error  // the first live snapshot to break a law's live form
}

func TestLineserverChaosSoak(t *testing.T) {
	const (
		rate      = 8000
		chunk     = 256 // frames (and bytes: µ-law mono) per iteration
		soakIters = 940 // ≈ 30 simulated seconds per profile
		rtTimeout = 4 * time.Millisecond
	)
	seed := chaosSeed(t)

	for pi, p := range chaosMatrix {
		p := p
		t.Run(p.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()

			clk := vdev.NewManualClock(rate)
			lb := vdev.NewLoopback(8192, 1, 0, 0xFF)
			fw, err := lineserver.NewFirmware(lineserver.FirmwareConfig{
				Clock: clk, Sink: lb, Source: lb,
				Faults: &netsim.PacketFaultConfig{
					Seed:    seed + int64(pi)*1000,
					Ingress: p.ingress,
					Egress:  p.egress,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			b, err := lineserver.Dial(fw.Addr(), rate, lineserver.Config{
				NoExtrapolate: true, Timeout: rtTimeout,
				Health: health.Config{Threshold: 3, Attempts: 6, Backoff: time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}

			// The driver streams audio; the test goroutine is the watchdog.
			// A wedge anywhere in the backend shows up as the driver never
			// finishing.
			done := make(chan chaosResult, 1)
			go func() {
				var res chaosResult
				gap := 0
				buf := make([]byte, chunk)
				data := make([]byte, chunk)
				for i := 0; i < soakIters; i++ {
					tw := atime.ATime(uint32(i * chunk))
					for j := range data {
						// Canonical µ-law bytes, never silence (0xFF).
						data[j] = sampleconv.EncodeMuLaw(int16(1000 + ((i+j)%64)*100))
					}
					b.WritePlay(tw, data)
					clk.Advance(chunk)
					b.Time() // sync the box past the window
					b.ReadRecord(tw, buf)
					iterIntact := 0
					for j := range buf {
						switch buf[j] {
						case data[j]:
							res.intact++
							iterIntact++
						case 0xFF:
							res.silent++
						default:
							res.corrupt++
						}
					}
					if iterIntact == 0 {
						if gap++; gap > res.maxGap {
							res.maxGap = gap
						}
					} else {
						gap = 0
					}
					// Sprinkle register traffic (the retried op class) and
					// check the laws' live forms on a live snapshot.
					if i%64 == 32 {
						b.WriteReg(lineserver.RegOutputGain, uint32(i))
						b.ReadReg(lineserver.RegOutputGain)
						if err := b.Stats().Check(false); err != nil && res.liveLawErr == nil {
							res.liveLawErr = err
						}
					}
				}
				done <- res
			}()

			var res chaosResult
			select {
			case res = <-done:
			case <-time.After(90 * time.Second):
				stack := make([]byte, 1<<20)
				stack = stack[:runtime.Stack(stack, true)]
				t.Fatalf("backend wedged: profile %q did not finish %d iterations in 90s\n%s",
					p.name, soakIters, stack)
			}

			b.Close()
			st := b.Stats()
			// The packet law is exact only on a closed conn: until then the
			// firmware may be mid-write on its last reply.
			fw.Close()
			faults := fw.Faults().Stats()

			total := res.intact + res.silent + res.corrupt
			intactFrac := float64(res.intact) / float64(total)
			t.Logf("profile %s seed %d: intact %.3f silent %.3f maxGap %d | req %d rep %d (ok %d stale %d dup %d) timeouts %d resyncs %d/%d/%d",
				p.name, seed, intactFrac, float64(res.silent)/float64(total), res.maxGap,
				st.Requests, st.Replies, st.Accepted, st.Stale, st.Duplicate,
				st.Timeouts, st.ResyncsStarted, st.ResyncsCompleted, st.ResyncsAbandoned)

			// Silence, never garbage.
			if res.corrupt != 0 {
				t.Errorf("%d corrupted bytes: stale or duplicated data leaked into audio", res.corrupt)
			}
			// Gap-bounded audio.
			if intactFrac < p.minIntact {
				t.Errorf("intact audio fraction %.3f < floor %.3f", intactFrac, p.minIntact)
			}
			if res.maxGap > p.maxGapIters {
				t.Errorf("longest silence gap %d iterations > ceiling %d", res.maxGap, p.maxGapIters)
			}
			// Conservation, exact after close.
			if err := st.Check(true); err != nil {
				t.Errorf("after close: %v", err)
			}
			if res.liveLawErr != nil {
				t.Errorf("live snapshot: %v", res.liveLawErr)
			}
			if err := faults.Check(true); err != nil {
				t.Errorf("netsim packet accounting: %v (%+v)", err, faults)
			}
			// Profile-specific health expectations.
			if p.wantResyncs && st.ResyncsStarted == 0 {
				t.Error("profile expected to trigger resyncs; none started")
			}
			if p.wantStale && st.Stale == 0 && st.Duplicate == 0 {
				t.Error("profile expected stale/duplicate replies; none classified")
			}
			if p.name != "clean" && st.Timeouts == 0 {
				t.Error("faulty profile recorded no timeouts; fault layer inert?")
			}

			// Goroutines settle: healer, firmware network thread, and the
			// fault layer must all be gone.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				stack := make([]byte, 1<<20)
				stack = stack[:runtime.Stack(stack, true)]
				t.Errorf("goroutines did not settle: %d > baseline %d\n%s", n, baseline, stack)
			}

			chaosSummary(t, fmt.Sprintf(
				"profile=%s seed=%d intact=%.3f max_gap=%d requests=%d replies=%d accepted=%d stale=%d duplicate=%d garbage=%d timeouts=%d slips=%d resyncs_started=%d resyncs_completed=%d resyncs_abandoned=%d resync_attempts=%d rec_silence_bytes=%d play_lost_bytes=%d state=%s\n",
				p.name, seed, intactFrac, res.maxGap,
				st.Requests, st.Replies, st.Accepted, st.Stale, st.Duplicate, st.Garbage,
				st.Timeouts, st.Slips, st.ResyncsStarted, st.ResyncsCompleted,
				st.ResyncsAbandoned, st.ResyncAttempts, st.RecSilenceBytes, st.PlayLostBytes,
				st.State))
		})
	}
}

// chaosSummary appends one line to the CHAOS_SUMMARY file (the CI build
// artifact), when configured.
func chaosSummary(t *testing.T, line string) {
	path := os.Getenv("CHAOS_SUMMARY")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Logf("chaos summary: %v", err)
		return
	}
	defer f.Close()
	if _, err := f.WriteString(line); err != nil {
		t.Logf("chaos summary: %v", err)
	}
}

// TestLineserverStatsExported: the backend's health counters must ride
// the afd -stats pipeline — a server with a lineserver device exposes
// them in its snapshot, satisfying the laws astat checks.
func TestLineserverStatsExported(t *testing.T) {
	clk := vdev.NewManualClock(8000)
	fw, err := lineserver.NewFirmware(lineserver.FirmwareConfig{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fw.Close)

	srv := rig.Server(t, aserver.Options{
		Devices: []aserver.DeviceSpec{{Kind: "lineserver", Name: "als0", Addr: fw.Addr(), LSNoExtrapolate: true}},
	})

	sl, err := srv.ListenStats("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sl.Close() })

	snap := scrapeStats(t, "http://"+sl.Addr().String()+"/stats")
	var ls *lineserver.BackendStats
	for _, d := range snap.Devices {
		if d.Lineserver != nil {
			ls = d.Lineserver
		}
	}
	if ls == nil {
		t.Fatal("no device in the snapshot carries lineserver health stats")
	}
	if ls.Requests == 0 || ls.Accepted == 0 {
		t.Errorf("lineserver stats empty over a live box: %+v", ls)
	}
	if ls.State != health.Healthy {
		t.Errorf("state over a healthy box = %s", ls.State)
	}
	if err := snap.Check(false); err != nil {
		t.Errorf("exported snapshot: %v", err)
	}
}
