package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a tail
// figure resting on fewer is one or two unlucky requests, not a percentile.
const minBeyond = 10

// rank is the 1-based nearest-rank index of the q-quantile among n samples.
// The small epsilon keeps q*n from rounding up past an exact integer (0.99 is
// not representable, and 0.99*1000 must give rank 990, not 991).
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// beyond is the number of samples strictly above the q-quantile's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// percentile returns the exact nearest-rank q-quantile of raw samples; it
// sorts a copy, so callers may pass unsorted data. NaN for no samples.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// tail is a median plus one tail percentile over raw samples, with the
// sample count they rest on.
type tail struct {
	N      int
	P50    float64
	Q      float64
	Tail   float64
	Enough bool // at least minBeyond samples lie above the tail percentile
}

func summarize(samples []float64, q float64) tail {
	return tail{
		N:      len(samples),
		P50:    percentile(samples, 0.5),
		Q:      q,
		Tail:   percentile(samples, q),
		Enough: beyond(len(samples), q) >= minBeyond,
	}
}

// mean is the arithmetic mean, 0 for no samples: per-layer figures of a
// layer a workload does not reach read as zero work.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio divides, reading 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
