package metrics

import "testing"

// hotSet is the instrument mix one hot request touches, as zero values —
// the way the server's metric sets hold them.
type hotSet struct {
	reqs      Counter
	depth     Gauge
	lat, size Histogram
}

// observe is the exact sequence a hot request performs: counter add,
// gauge touch, two histogram observations.
func (m *hotSet) observe(i int) {
	m.reqs.Inc()
	m.depth.Add(1)
	m.lat.Observe(int64(i))
	m.size.Observe(int64(i & 0xFFFF))
	m.depth.Add(-1)
}

// BenchmarkMetricsHotPath times the observation path; TestMetricsHotPathAllocs
// holds the same body to 0 allocations.
func BenchmarkMetricsHotPath(b *testing.B) {
	var m hotSet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.observe(i)
	}
}

// BenchmarkMetricsObserve isolates a single histogram observation.
func BenchmarkMetricsObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
