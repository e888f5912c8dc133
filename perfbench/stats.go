package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile. A p99
// read off fewer than ten slower samples is one or two outliers, not a tail.
const minTail = 10

// tailPercentile returns the q-quantile of sorted (nearest rank) and the
// quantile it actually reports. When fewer than minTail samples would lie
// beyond the q-quantile, it falls back to the highest quantile that leaves
// minTail beyond it. ok is false when the sample has no such quantile at all
// (minTail or fewer samples).
func tailPercentile(sorted []float64, q float64) (value, used float64, ok bool) {
	n := len(sorted)
	if n <= minTail {
		return 0, 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		rank = n - minTail
	}
	return sorted[rank-1], float64(rank) / float64(n), true
}

// median returns the middle value of vs (mean of the two middles for an even
// count); vs need not be sorted and is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of vs (0 for an empty slice).
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// perUnit is total/n, or 0 when there is nothing to divide by.
func perUnit(total, n float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}
