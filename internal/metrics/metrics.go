// Package metrics is the server's zero-allocation observability core:
// atomic counters, gauges, and fixed-bucket histograms that the hot
// paths (dispatch, engine locks, the wire writer) update without
// allocating; Law, the one form every conservation law is stated in; and
// Log, the one record of state transitions (log.go).
//
// An instrument is a plain struct field whose zero value is ready to use:
// it has no name and is registered nowhere. Its owner's typed snapshot
// (aserver.Snapshot, RouterSnapshot) is its one export, so a metric is
// exported by a line in that snapshot, not by a string.
//
// The design splits cost asymmetrically. Observation — the operation
// that runs per request, per lock acquisition, per writev — is a handful
// of atomic adds on a field reached directly: no map lookups, no
// interface boxing, no time formatting. Export — the operation that runs
// when a human or a poller asks — copies each field into the snapshot and
// may allocate freely.
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
	"math"
	"math/bits"
	"sync/atomic"
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
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the same value v with one bucket
// update — the batched form the dispatcher uses when a run of requests
// shares a measurement (per-request latency of a coalesced batch), and
// the one Observe makes.
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
// top of the bucket holding the nearest-rank observation, the first at
// which the cumulative count reaches ceil(q*Count). With power-of-two
// buckets the answer is exact to within 2x.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	target := max(uint64(math.Ceil(q*float64(s.Count))), 1)
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
