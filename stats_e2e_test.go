// End-to-end coverage for the stats endpoint: run a play/record workload
// against a manual-clock server, scrape the HTTP endpoint while it runs,
// and force an underrun by jumping device time past the hardware window
// — the scraped JSON must show the underrun and preemption counters
// moving and the conservation laws holding.
package audiofile

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/internal/rig"
	"audiofile/internal/vdev"
)

func scrapeStats(t *testing.T, url string) aserver.Snapshot {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	var snap aserver.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return snap
}

func TestStatsEndpoint(t *testing.T) {
	clk := vdev.NewManualClock(8000)
	srv := rig.Server(t, aserver.Options{
		Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Clock: clk}},
	})

	sl, err := srv.ListenStats("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sl.Close() })
	statsURL := "http://" + sl.Addr().String() + "/stats"

	conn, err := rig.Client(srv.DialPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Scrapers race the workload: every snapshot taken mid-flight must
	// already satisfy the laws' live forms.
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := scrapeStats(t, statsURL).Check(false); err != nil {
				t.Errorf("mid-workload snapshot: %v", err)
				return
			}
		}
	}()

	mixer, err := conn.CreateAC(0, 0, af.ACAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	preemptor, err := conn.CreateAC(0, af.ACPreemption, af.ACAttributes{Preempt: true})
	if err != nil {
		t.Fatal(err)
	}

	now, err := mixer.GetTime()
	if err != nil {
		t.Fatal(err)
	}
	// 4096 frames of audio from t=now, then a preempting play over the
	// first half of it: 2048 valid frames are overwritten.
	if _, err := mixer.PlaySamples(now, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, err := preemptor.PlaySamples(now, make([]byte, 2048)); err != nil {
		t.Fatal(err)
	}
	// A short non-blocking record of the past, so the record counters
	// move: at now itself nothing is recorded yet.
	_, recorded, err := mixer.RecordSamples(now.Add(-64), make([]byte, 64), false)
	if err != nil {
		t.Fatal(err)
	}

	// Force an underrun: jump device time far past the hardware window
	// (1024 frames) while 4096 frames of valid client data were queued.
	// The update task finds frames that slid into the past unplayed.
	clk.Advance(8192)
	srv.Sync()

	close(stop)
	scrapeWG.Wait()

	s := scrapeStats(t, statsURL)
	if len(s.Devices) != 1 {
		t.Fatalf("devices = %d, want 1", len(s.Devices))
	}
	d := s.Devices[0]
	if d.Underruns == 0 {
		t.Error("underruns did not move after device-time jump over queued audio")
	}
	if d.FramesPreempted == 0 {
		t.Error("preempted frames did not move after a preempting overlap play")
	}
	if want := uint64(4096 + 2048); d.PlayBytes != want || d.FramesAccepted != want {
		t.Errorf("play bytes %d / frames accepted %d, want %d", d.PlayBytes, d.FramesAccepted, want)
	}
	if recorded == 0 || d.RecBytes != uint64(recorded) {
		t.Errorf("rec bytes %d, want the %d the record returned, not 0", d.RecBytes, recorded)
	}
	if d.FramesPreempted != 2048 {
		t.Errorf("frames preempted = %d, want 2048 (the overwritten overlap)", d.FramesPreempted)
	}
	if d.Underruns != 3072 {
		// 4096 valid frames, 1024 already written through to the
		// hardware window at play time.
		t.Errorf("underruns = %d, want 3072", d.Underruns)
	}
	if s.DispatchPlayNs.Count != 2 || s.DispatchRecordNs.Count != 1 {
		t.Errorf("dispatch counts play=%d record=%d, want 2 and 1",
			s.DispatchPlayNs.Count, s.DispatchRecordNs.Count)
	}
	conn.Close()
	if err := drainSnapshot(t, srv).Check(true); err != nil {
		t.Error(err)
	}
}
