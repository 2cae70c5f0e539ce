package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples within a run.
type summary struct {
	Mean   float64 `json:"mean"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize returns the mean, median, quartiles, extremes and count of
// xs. No op count reaches a high percentile with ten samples beyond it,
// so the summary stops at the max.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	q1, q3 := quartiles(s)
	return summary{Mean: sum / float64(len(s)), Median: quantileSorted(s, 0.5), Q1: q1, Q3: q3,
		Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 { return summarize(xs).Median }

// quantileSorted interpolates the q-quantile of sorted xs linearly
// between the closest ranks.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// quartiles returns the first and third quartiles of sorted xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the rule
// the benchmark's spread bounds are checked with.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return xs[0], xs[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
