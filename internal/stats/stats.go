// Package stats implements the small set of statistics used by the
// SeeSAw policies and the experiment harness: central tendency, run
// variability (as defined in the paper's Table I), the blend step of
// SeeSAw's smoothing and its rolling measurement window.
package stats

import "sort"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs, or 0 for an empty slice. The input is
// not modified.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if n%2 == 1 {
		return c[n/2]
	}
	// Overflow-safe midpoint: summing two values near ±MaxFloat64
	// before halving would produce ±Inf.
	return c[n/2-1]/2 + c[n/2]/2
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// VariabilityPct is the run variability metric used in the paper's
// Table I: the spread of repeated runtimes relative to their mean,
// reported as a percentage ((max-min)/mean * 100). Returns 0 when fewer
// than two samples are available or the mean is zero.
func VariabilityPct(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return (Max(xs) - Min(xs)) / m * 100
}

// Blend returns w*x + (1-w)*prev: a single EWMA step with an explicit
// weight, as used by the SeeSAw allocator where the weight itself varies
// per step.
func Blend(x, prev, w float64) float64 { return w*x + (1-w)*prev }

// RollingWindow keeps the last capacity observations and reports their
// mean, as used for SeeSAw's w-step measurement window.
type RollingWindow struct {
	buf []float64
	cap int
	pos int
	n   int
}

// NewRollingWindow returns a window holding up to capacity observations.
func NewRollingWindow(capacity int) *RollingWindow {
	if capacity <= 0 {
		panic("stats: rolling window capacity must be positive")
	}
	return &RollingWindow{buf: make([]float64, capacity), cap: capacity}
}

// Add inserts an observation, evicting the oldest when full.
func (r *RollingWindow) Add(x float64) {
	r.buf[r.pos] = x
	r.pos = (r.pos + 1) % r.cap
	if r.n < r.cap {
		r.n++
	}
}

// Len reports how many observations are currently held.
func (r *RollingWindow) Len() int { return r.n }

// Full reports whether the window holds capacity observations.
func (r *RollingWindow) Full() bool { return r.n == r.cap }

// Mean returns the mean of the held observations (0 if empty).
func (r *RollingWindow) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	var s float64
	for i := 0; i < r.n; i++ {
		s += r.buf[i]
	}
	return s / float64(r.n)
}
