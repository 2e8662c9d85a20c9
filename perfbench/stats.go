package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 needs at least 1,000 samples, a p50 at
// least 20.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sample,
// and whether at least minBeyond samples lie strictly beyond it. The
// sample is sorted in place.
func percentile(sample []float64, q float64) (float64, bool) {
	n := len(sample)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if n-rank < minBeyond {
		return 0, false
	}
	sort.Float64s(sample)
	return sample[rank-1], true
}

// median returns the middle value of xs (the mean of the middle pair for
// an even count), leaving xs unchanged; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// lagMs is the open-loop emission lag of one CAG, in milliseconds: the
// wall time from when the CAG became decidable to its delivery at the
// sink. The schedule plays activity time at speed× from origin ts0
// (wall 0), so a record stamped ts is due at (ts-ts0)/speed; the CAG is
// decidable once its END record is due and the seal horizon, mapped to
// wall time the same way, has passed. deliver is the delivery's wall
// offset from the schedule's origin.
func lagMs(deliver, end, ts0, horizon time.Duration, speed float64) float64 {
	due := float64(end-ts0+horizon) / speed
	return (float64(deliver) - due) / float64(time.Millisecond)
}
