package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of vals by the
// nearest-rank rule: the smallest value with at least p% of the sample
// at or below it. vals is sorted in place. An empty sample yields NaN,
// so a window that produced no data can never pass for a fast one.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	rank := int(math.Ceil(p / 100 * float64(len(vals))))
	if rank < 1 {
		rank = 1
	}
	return vals[rank-1]
}

// median is the 50th percentile with the two middle values averaged on
// an even sample, the convention statistics.median uses.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

// quartileSpread is the distance between the first and third quartile
// of vals as a share of their median, with the quartiles Python's
// statistics.quantiles(vals, n=4) gives (the exclusive method). It is
// the run-to-run spread BENCHMARK.json's bounds are judged against.
// Fewer than two values have no spread.
func quartileSpread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return math.NaN()
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	quart := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	med := median(sorted)
	if med == 0 {
		return math.NaN()
	}
	return (quart(3) - quart(1)) / math.Abs(med)
}
