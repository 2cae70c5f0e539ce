package rng

import (
	"math"
	"testing"
)

// refPair is the Box–Muller pair as Norm computed it before the kernel,
// through the math package.
func refPair(u, v float64) (float64, float64) {
	r := math.Sqrt(-2 * math.Log(u))
	sin, cos := math.Sincos(2 * math.Pi * v)
	return r * cos, r * sin
}

// checkLog and checkSincos stay free of t.Helper, which would cost
// more than the ten million comparisons they make.
func checkLog(t *testing.T, x float64) {
	if got, want := logKernel(x), math.Log(x); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("logKernel(%v [%#016x]) = %v [%#016x], math.Log = %v [%#016x]",
			x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func checkSincos(t *testing.T, x float64) {
	gs, gc := sincosKernel(x)
	ws, wc := math.Sincos(x)
	if math.Float64bits(gs) != math.Float64bits(ws) || math.Float64bits(gc) != math.Float64bits(wc) {
		t.Fatalf("sincosKernel(%v [%#016x]) = (%v, %v), math.Sincos = (%v, %v)", x, math.Float64bits(x), gs, gc, ws, wc)
	}
}

// TestKernelMatchesMath pins the kernel to the math package bit for
// bit: on 10^7 (u, v) pairs drawn the way Norm draws them, on random
// normal log arguments and random angles up to 2π, and on the edges
// where the branch-free selections switch.
func TestKernelMatchesMath(t *testing.T) {
	s := New(2024)
	for i := 0; i < 10_000_000; i++ {
		u := s.posFloat64()
		checkLog(t, u)
		checkSincos(t, 2*math.Pi*s.Float64())
	}
	// Any positive normal x, and any angle in [0, 2π] down to the
	// subnormal range, not only the stream's multiples of 2^-53.
	for i := 0; i < 1_000_000; i++ {
		b := s.Uint64()
		exp := 1 + (b>>52)%2046 // a normal, finite exponent
		checkLog(t, math.Float64frombits(exp<<52|b&fracMask))
		if x := math.Float64frombits(b >> 1); x <= 2*math.Pi {
			checkSincos(t, x)
		}
	}

	// The smallest u the stream yields, and the largest.
	checkLog(t, 0x1p-53)
	checkLog(t, 1-0x1p-53)
	// Mantissas at and next to √2/2, where the fold switches, at every
	// normal exponent.
	for e := uint64(1); e <= 2046; e++ {
		for _, m := range []uint64{hSqrt2Frac - 1, hSqrt2Frac, hSqrt2Frac + 1} {
			checkLog(t, math.Float64frombits(e<<52|m))
		}
	}
	// Every octant boundary of v, its neighbours, and v = 0.
	for k := 0; k <= 8; k++ {
		v := float64(k) / 8
		for _, w := range []float64{math.Nextafter(v, -1), v, math.Nextafter(v, 2)} {
			if w >= 0 && w < 1 {
				checkSincos(t, 2*math.Pi*w)
			}
		}
	}
	checkSincos(t, 2*math.Pi*(1-0x1p-53))
	if sin, cos := sincosKernel(0); math.Float64bits(sin) != 0 || cos != 1 {
		t.Errorf("sincosKernel(0) = (%v, %v), want (+0, 1)", sin, cos)
	}
}

// TestFillNormMatchesNorm checks that FillNorm yields the draws repeated
// Norm calls would, and leaves the stream where they would, for every
// length up to 64, with and without a pending spare.
func TestFillNormMatchesNorm(t *testing.T) {
	for _, spare := range []bool{false, true} {
		for n := 0; n <= 64; n++ {
			a, b := New(uint64(77+n)), New(uint64(77+n))
			if spare {
				if a.Norm() != b.Norm() {
					t.Fatal("equal streams diverged")
				}
			}
			got := make([]float64, n)
			b.FillNorm(got)
			for i := range got {
				if want := a.Norm(); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("spare=%v n=%d: FillNorm[%d] = %v, Norm = %v", spare, n, i, got[i], want)
				}
			}
			for i := 0; i < 3; i++ {
				if x, y := a.Norm(), b.Norm(); math.Float64bits(x) != math.Float64bits(y) {
					t.Fatalf("spare=%v n=%d: draw %d after FillNorm = %v, after Norm = %v", spare, n, i, y, x)
				}
			}
		}
	}
}

// FuzzNormKernel feeds the kernel the uniforms any two raw 64-bit
// outputs of the generator map to and compares the pair with the math
// package's.
func FuzzNormKernel(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(1)<<11, ^uint64(0))
	f.Add(uint64(0xB504F333F9DE6484), uint64(0x2000000000000000))
	f.Add(^uint64(0), uint64(0x6000000000000000))
	f.Fuzz(func(t *testing.T, a, b uint64) {
		u := float64(a>>11) / (1 << 53)
		v := float64(b>>11) / (1 << 53)
		if u == 0 {
			return // the stream redraws a zero u
		}
		g0, g1 := boxMuller(u, v)
		w0, w1 := refPair(u, v)
		if math.Float64bits(g0) != math.Float64bits(w0) || math.Float64bits(g1) != math.Float64bits(w1) {
			t.Fatalf("boxMuller(%v, %v) = (%v, %v), want (%v, %v)", u, v, g0, g1, w0, w1)
		}
	})
}
