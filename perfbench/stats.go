package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count), 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailRank picks the 1-based rank of the tail sample reported for n
// samples: the highest percentile, up to the 90th, with at least ten
// samples beyond it, but never below the upper median rank, so the tail
// never reads below the median. With 100 or more samples it is the
// nearest-rank 90th percentile; with fewer it slides down so that ten
// samples stay above it; below 21 samples the floor leaves fewer than ten
// beyond it, and the reported quantile says so.
func tailRank(n int) int {
	if n <= 0 {
		return 0
	}
	k := (9*n + 9) / 10 // ceil(0.9 n)
	if n-10 < k {
		k = n - 10
	}
	if mid := n/2 + 1; k < mid {
		k = mid
	}
	return k
}

// tail returns the tail sample of xs chosen by tailRank and its quantile
// (rank / n).
func tail(xs []float64) (value, q float64) {
	k := tailRank(len(xs))
	if k == 0 {
		return 0, 0
	}
	return sorted(xs)[k-1], float64(k) / float64(len(xs))
}

// geomean is the geometric mean of xs; every value must be positive, and a
// non-positive one makes the result NaN so the caller's check fails loudly.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is hit/(hit+miss), 0 with no attempts.
func ratio(hit, miss float64) float64 {
	if hit+miss == 0 {
		return 0
	}
	return hit / (hit + miss)
}

// perCall divides a total by a call count, 0 with no calls.
func perCall(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// passFigures are the medians over groups of samples (the passes of a
// run, or the windows of a timed phase) of each group's median and tail,
// with the tail's quantile within a group. The number of groups a run
// fills then does not change which quantile the tail is, and one slow
// group moves neither figure.
func passFigures(groups [][]float64) (p50, p90, q float64) {
	var p50s, p90s []float64
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		p50s = append(p50s, median(g))
		v, gq := tail(g)
		p90s = append(p90s, v)
		q = gq
	}
	return median(p50s), median(p90s), q
}
