// Package metrics is the server's zero-allocation observability core:
// atomic counters, gauges, and fixed-bucket histograms that the hot
// paths (dispatch, engine locks, the wire writer) update without
// allocating, plus a registry that names every metric once at startup
// so export endpoints can walk them.
//
// The design splits cost asymmetrically. Observation — the operation
// that runs per request, per lock acquisition, per writev — is a handful
// of atomic adds on pre-registered structs reached through direct
// pointers: no map lookups, no interface boxing, no time formatting.
// Export — the operation that runs when a human or a poller asks — walks
// the registry, snapshots each metric, and may allocate freely.
//
// Histograms use fixed power-of-two buckets: a value v lands in bucket
// bits.Len64(v), so bucket i covers [2^(i-1), 2^i). That turns Observe
// into one BSR instruction plus three atomic adds, needs no bucket
// configuration per metric, and still answers the questions an operator
// asks of latency and size distributions (median, tail, max order of
// magnitude).
package metrics

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (it may go down).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// NumBuckets is the fixed histogram bucket count. Bucket i counts values
// v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i); bucket 0 counts
// zeros. 40 buckets cover up to ~5.5e11 — about nine minutes of
// nanoseconds or half a terabyte of bytes; larger values clamp into the
// last bucket (Sum still accumulates them exactly).
const NumBuckets = 40

// Histogram is a fixed-bucket power-of-two histogram. Observe is
// allocation-free and safe from any goroutine.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	h.buckets[b].Add(1)
	h.sum.Add(uint64(v))
	h.count.Add(1)
}

// ObserveN records n observations of the same value v with one bucket
// update — the batched form the dispatcher uses when a run of requests
// shares a measurement (per-request latency of a coalesced batch). It is
// exactly equivalent to calling Observe(v) n times.
func (h *Histogram) ObserveN(v int64, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	h.buckets[b].Add(n)
	h.sum.Add(uint64(v) * n)
	h.count.Add(n)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot copies the histogram state. The copy is not atomic across
// buckets — concurrent observations may straddle it — but every bucket
// read is itself atomic, so the result is never torn, and Count is read
// before the buckets so Count <= sum(Buckets) always holds for
// invariant-style checks.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			s.Buckets = append(s.Buckets, Bucket{Bit: uint8(i), Count: n})
		}
	}
	return s
}

// Bucket is one non-empty histogram bucket: Count values v with
// bits.Len64(v) == Bit (upper bound 2^Bit - 1).
type Bucket struct {
	Bit   uint8  `json:"bit"`
	Count uint64 `json:"n"`
}

// HistogramSnapshot is the exportable state of a Histogram. Only
// non-empty buckets are carried, so idle metrics marshal small.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the average observed value, or 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// UpperBound returns the largest value bucket bit can hold.
func UpperBound(bit uint8) uint64 {
	if bit == 0 {
		return 0
	}
	return 1<<bit - 1
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// top of the first bucket at which the cumulative count reaches
// q*Count. With power-of-two buckets the answer is exact to within 2x.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	target := uint64(q * float64(s.Count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= target {
			return UpperBound(b.Bit)
		}
	}
	return UpperBound(s.Buckets[len(s.Buckets)-1].Bit)
}

// Max returns an upper bound for the largest observed value.
func (s HistogramSnapshot) Max() uint64 {
	if len(s.Buckets) == 0 {
		return 0
	}
	return UpperBound(s.Buckets[len(s.Buckets)-1].Bit)
}

// Law checks one conservation law between two counter totals, named
// "ahead = behind" by the caller: ahead never falls below behind, may
// run ahead of it by the operations in flight, and equals it once
// settled. A law exact in every snapshot passes settled true always; a
// bound that is never an equality passes false always. Every type that
// carries laws states them once, as a Check(settled bool) error joining
// its Law calls with errors.Join.
func Law(name string, ahead, behind uint64, settled bool) error {
	if ahead < behind {
		return fmt.Errorf("%s: %d < %d", name, ahead, behind)
	}
	if settled && ahead != behind {
		return fmt.Errorf("%s: %d > %d once settled", name, ahead, behind)
	}
	return nil
}

// Registry names metrics for export. Registration happens once at
// startup and allocates; the returned pointers are then used directly by
// the hot paths. A Registry is safe for concurrent registration and
// export, though the expected pattern is register-then-run.
type Registry struct {
	mu      sync.Mutex
	entries []entry
}

type entry struct {
	name string
	v    any // *Counter, *Gauge, or *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter registers and returns a new counter under name.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.add(name, c)
	return c
}

// Gauge registers and returns a new gauge under name.
func (r *Registry) Gauge(name string) *Gauge {
	g := &Gauge{}
	r.add(name, g)
	return g
}

// Histogram registers and returns a new histogram under name.
func (r *Registry) Histogram(name string) *Histogram {
	h := &Histogram{}
	r.add(name, h)
	return h
}

func (r *Registry) add(name string, v any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		if e.name == name {
			panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
		}
	}
	r.entries = append(r.entries, entry{name, v})
}

// Do calls fn for every registered metric in name order.
func (r *Registry) Do(fn func(name string, v any)) {
	r.mu.Lock()
	es := append([]entry(nil), r.entries...)
	r.mu.Unlock()
	sort.Slice(es, func(i, j int) bool { return es[i].name < es[j].name })
	for _, e := range es {
		fn(e.name, e.v)
	}
}

// WriteExpvar writes the registry as one flat JSON object in the format
// of net/http's /debug/vars: {"name": value, ...}. Counters and gauges
// render as numbers; histograms as {"count":..,"sum":..,"mean":..,
// "p50":..,"p99":..,"max":..}.
func (r *Registry) WriteExpvar(w io.Writer) error {
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pr("{")
	first := true
	r.Do(func(name string, v any) {
		if !first {
			pr(",\n")
		}
		first = false
		pr("%q: ", name)
		switch m := v.(type) {
		case *Counter:
			pr("%d", m.Load())
		case *Gauge:
			pr("%d", m.Load())
		case *Histogram:
			s := m.Snapshot()
			pr(`{"count": %d, "sum": %d, "mean": %.1f, "p50": %d, "p99": %d, "max": %d}`,
				s.Count, s.Sum, s.Mean(), s.Quantile(0.5), s.Quantile(0.99), s.Max())
		default:
			pr("null")
		}
	})
	pr("}\n")
	return err
}
