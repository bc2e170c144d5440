package metrics

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// 0 -> bucket 0; 1 -> bucket 1; 2,3 -> bucket 2; 1000 -> bucket 10.
	for _, v := range []int64{0, 1, 2, 3, 1000, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Sum != 0+1+2+3+1000+0 {
		t.Fatalf("sum = %d, want 1006", s.Sum)
	}
	want := map[uint8]uint64{0: 2, 1: 1, 2: 2, 10: 1} // -5 clamps to 0
	got := map[uint8]uint64{}
	for _, b := range s.Buckets {
		got[b.Bit] = b.Count
	}
	for bit, n := range want {
		if got[bit] != n {
			t.Errorf("bucket %d = %d, want %d (snapshot %+v)", bit, got[bit], n, s)
		}
	}
}

func TestHistogramClampsHugeValues(t *testing.T) {
	var h Histogram
	h.Observe(1 << 62)
	s := h.Snapshot()
	if len(s.Buckets) != 1 || s.Buckets[0].Bit != NumBuckets-1 {
		t.Fatalf("huge value not clamped into last bucket: %+v", s)
	}
	if s.Sum != 1<<62 {
		t.Fatalf("sum should be exact even for clamped values: %d", s.Sum)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(100) // bucket 7, upper bound 127
	}
	h.Observe(100000) // bucket 17, upper bound 131071
	s := h.Snapshot()
	if q := s.Quantile(0.5); q != 127 {
		t.Errorf("p50 = %d, want 127", q)
	}
	if q := s.Quantile(0.99); q != 127 {
		t.Errorf("p99 = %d, want 127 (99 of 100 observations are 100)", q)
	}
	if m := s.Max(); m != 131071 {
		t.Errorf("max = %d, want 131071", m)
	}
	if mean := s.Mean(); mean < 1000 || mean > 1200 {
		t.Errorf("mean = %f, want ~1099", mean)
	}

	// Nearest rank: p99 of ten observations is the tenth, not the ninth.
	var small Histogram
	for i := 0; i < 9; i++ {
		small.Observe(1) // bucket 1, upper bound 1
	}
	small.Observe(1000) // bucket 10, upper bound 1023
	if q := small.Snapshot().Quantile(0.99); q != 1023 {
		t.Errorf("p99 of nine 1s and one 1000 = %d, want 1023", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const gor, per = 8, 1000
	for i := 0; i < gor; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != gor*per {
		t.Fatalf("count = %d, want %d", got, gor*per)
	}
}

func TestSnapshotRoundTripsJSON(t *testing.T) {
	var h Histogram
	h.Observe(12)
	h.Observe(40000)
	b, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var s HistogramSnapshot
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if s.Count != 2 || s.Sum != 40012 || len(s.Buckets) != 2 {
		t.Fatalf("round trip lost data: %+v", s)
	}
}

// TestLaw: ahead below behind always fails; ahead above behind passes
// live and fails settled; equality always passes. A failure names the law.
func TestLaw(t *testing.T) {
	for _, tc := range []struct {
		ahead, behind uint64
		settled       bool
		ok            bool
	}{
		{5, 5, false, true},
		{5, 5, true, true},
		{6, 5, false, true},
		{6, 5, true, false},
		{4, 5, false, false},
		{4, 5, true, false},
	} {
		err := Law("a = b", tc.ahead, tc.behind, tc.settled)
		if (err == nil) != tc.ok {
			t.Errorf("Law(%d, %d, settled %v) = %v, want ok %v", tc.ahead, tc.behind, tc.settled, err, tc.ok)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "a = b: ") {
			t.Errorf("error %q does not name the law", err)
		}
	}
}
