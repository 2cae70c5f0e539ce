// Package rng provides deterministic pseudo-random number streams for the
// simulation. Every source of stochasticity (node speed skew, phase
// jitter, OS noise) draws from its own named stream so experiments are
// reproducible bit-for-bit from a single job seed, and adding a new noise
// source does not perturb existing streams.
//
// Normal variates come from Box–Muller pairs. A branch-free kernel
// (kernel.go) computes each pair with the same bits as the math package
// on amd64; Norm returns the draws one at a time, and FillNorm a run of
// them.
package rng

import (
	"math"
)

// Stream is a deterministic random number generator based on splitmix64.
// The zero value is a valid stream seeded with 0.
type Stream struct {
	state uint64
	// cached spare Gaussian variate for Box-Muller.
	hasSpare bool
	spare    float64
}

// New returns a stream seeded with seed.
func New(seed uint64) *Stream { return &Stream{state: seed} }

// Derive returns a new independent stream deterministically derived from
// the parent seed and a label. Identical (seed, label) pairs always yield
// identical streams.
func Derive(seed uint64, label string) *Stream {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(label) {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return New(mix(h))
}

// DeriveIndexed derives a stream from a parent seed, label and an index
// (e.g. per-node streams).
func DeriveIndexed(seed uint64, label string, idx int) *Stream {
	s := Derive(seed, label)
	return New(mix(s.state ^ (uint64(idx)+1)*0xbf58476d1ce4e5b9))
}

func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / float64(1<<53)
}

// Norm returns a standard normal variate (mean 0, stddev 1) using
// Box-Muller: one pair of uniforms makes two normals, the first
// returned now and the second kept as a spare for the next call. The
// pair comes from a branch-free kernel that gives the same bits as
// math.Sqrt(-2*math.Log(u)) and math.Sincos(2*math.Pi*v) on amd64
// (kernel.go); the stored goldens pin those bits.
func (s *Stream) Norm() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	u := s.posFloat64()
	v := s.Float64()
	first, second := boxMuller(u, v)
	s.spare = second
	s.hasSpare = true
	return first
}

// posFloat64 returns the next non-zero Float64, the log's domain.
func (s *Stream) posFloat64() float64 {
	for {
		if u := s.Float64(); u != 0 {
			return u
		}
	}
}

// FillNorm fills dst with consecutive standard-normal draws from s,
// equal to len(dst) repeated Norm calls and leaving s in the same
// state. It first drains a pending spare, then writes whole pairs
// without Norm's spare bookkeeping. It is the recording primitive for
// memoized noise traces.
func (s *Stream) FillNorm(dst []float64) {
	if len(dst) > 0 && s.hasSpare {
		dst[0] = s.spare
		s.hasSpare = false
		dst = dst[1:]
	}
	for len(dst) >= 2 {
		dst[0], dst[1] = boxMuller(s.posFloat64(), s.Float64())
		dst = dst[2:]
	}
	if len(dst) == 1 {
		dst[0] = s.Norm()
	}
}

// Gauss returns a normal variate with the given mean and stddev.
func (s *Stream) Gauss(mean, stddev float64) float64 {
	return mean + stddev*s.Norm()
}

// LogNormFactor returns a multiplicative noise factor with median 1 whose
// log has the given stddev (sigma). sigma=0 returns exactly 1.
func (s *Stream) LogNormFactor(sigma float64) float64 {
	if sigma == 0 {
		return 1
	}
	return math.Exp(sigma * s.Norm())
}

// JitterFrom returns 1 + rel*norm for a pre-drawn standard normal,
// floored at 0.05 to keep the factor positive. The noise-trace replay
// path records the Norm draws once per job and feeds them back through
// this function, so a replayed jitter factor is the same float a live
// draw would have produced.
func JitterFrom(norm, rel float64) float64 {
	f := 1 + rel*norm
	if f < 0.05 {
		f = 0.05
	}
	return f
}
