package main

import (
	"math"
	"slices"
)

// percentile returns the q-quantile (0 < q <= 1) of ascending samples by
// the nearest-rank rule: the smallest sample with at least q of the
// population at or below it. It never interpolates, so a median of
// homogeneous cycles is always a cycle time that was actually observed.
func percentile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return float64(sorted[rank-1])
}

// median returns the middle of vals (mean of the middle two when even);
// it is how the per-window values of one metric become the reported one.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianNs sorts samples in place and returns their median.
func medianNs(samples []uint32) float64 {
	slices.Sort(samples)
	return percentile(samples, 0.5)
}

// trimmedMean returns the mean of ascending samples without their highest
// percent per cent.
func trimmedMean(sorted []uint32, percent int) float64 {
	n := len(sorted) * (100 - percent) / 100
	if n == 0 {
		return 0
	}
	var sum uint64
	for _, v := range sorted[:n] {
		sum += uint64(v)
	}
	return float64(sum) / float64(n)
}

// spread is the relative distance between two runs of one metric, the
// figure -repeat compares with the metric's bound.
func spread(a, b float64) float64 {
	m := (a + b) / 2
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
