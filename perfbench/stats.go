package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a p95 over 40 samples rests on two points and moves with
// every outlier, so the tail reported is the highest percentile that ten
// samples still exceed.
const minBeyond = 10

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the p-th percentile by nearest rank, lowered until at least
// minBeyond samples lie beyond it, but never below the median; it also
// returns the percentile actually used.  With fewer than 2*minBeyond+1
// samples the tail is the median.
func tail(xs []float64, p float64) (value, used float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	rank = min(rank, n-minBeyond)
	if mid := (n + 1) / 2; rank <= mid {
		return median(s), 50
	}
	return s[rank-1], 100 * float64(rank) / float64(n)
}
