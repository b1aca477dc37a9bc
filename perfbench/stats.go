package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a percentile with fewer samples beyond it is one or two outliers, not
// a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// the sample count it was taken over. It refuses a percentile that has
// fewer than minBeyond samples above it, so every reported tail is
// backed by at least that many observations.
func percentile(xs []float64, p float64) (float64, int, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if n == 0 || n-rank < minBeyond {
		need := int(math.Ceil(float64(minBeyond) / (1 - p)))
		return 0, n, fmt.Errorf("p%g over %d samples: need at least %d for %d samples beyond it", p*100, n, need, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(rank, 1)-1], n, nil
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); it is used for small fixed sample sets such as
// repeated set-ups, where no tail is claimed.
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
