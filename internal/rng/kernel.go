package rng

import "math"

// The Box–Muller kernel computes each pair as math.Sqrt(-2*math.Log(u))
// and math.Sincos(2*math.Pi*v) would, with the same bits on amd64 for
// every input the stream produces (u in [2^-53, 1), v in [0, 1), both
// multiples of 2^-53); the stored goldens pin those bits, and
// TestKernelMatchesMath pins the kernel to the math package. It does
// not call the math package because the calls cost more than their
// arithmetic: math.Log on amd64 is an assembly routine the compiler
// cannot inline, and math.Sincos picks its octant with data-dependent
// branches that mispredict on uniform angles and flush the independent
// work queued behind them. The port chooses the octant and the log's
// range fold by integer masks instead of branches.
//
// Like the math package it copies, the port relies on the compiler
// rounding every product and sum: Go's amd64 back end does not fuse
// multiply-adds (Go 1.24, GOAMD64 v1 and v3 alike).

// Constants of math.Log's amd64 assembly, which are those of its pure-Go
// log.
const (
	ln2Hi = 6.93147180369123816490e-01 // 0x3fe62e42fee00000
	ln2Lo = 1.90821492927058770002e-10 // 0x3dea39ef35793c76
	lg1   = 6.666666666666735130e-01   // 0x3FE5555555555593
	lg2   = 3.999999999940941908e-01   // 0x3FD999999997FA04
	lg3   = 2.857142874366239149e-01   // 0x3FD2492494229359
	lg4   = 2.222219843214978396e-01   // 0x3FCC71C51D8E78AF
	lg5   = 1.818357216161805012e-01   // 0x3FC7466496CB03DE
	lg6   = 1.531383769920937332e-01   // 0x3FC39A09D078C69F
	lg7   = 1.479819860511658591e-01   // 0x3FC2F112DF3E5244

	// fracMask selects a float64's mantissa field, and hSqrt2Frac is
	// the mantissa field of √2/2 (0x3FE6A09E667F3BCD).
	fracMask   = 1<<52 - 1
	hSqrt2Frac = 0x6A09E667F3BCD
)

// logKernel returns math.Log(x) as the amd64 assembly computes it, for
// a positive, normal, finite x.
func logKernel(x float64) float64 {
	b := math.Float64bits(x)
	frac := b & fracMask
	// x = f1·2^k with f1 in [0.5, 1). The assembly doubles f1 and
	// decrements k when f1 <= √2/2, where the pure-Go log tests
	// f1 < √2/2; the port keeps the assembly's test (at f1 = √2/2 the
	// two folds happen to round to the same log at every exponent). le
	// is 1 when the assembly folds and 0 otherwise, taken from the sign
	// of a difference rather than from a branch. Doubling f1 only bumps
	// its exponent, so it is exact.
	le := uint64(int64(hSqrt2Frac-frac)>>63) + 1
	f := math.Float64frombits(frac|(0x3FE+le)<<52) - 1
	k := float64(int64(b>>52) - 0x3FE - int64(le))

	s := f / (2 + f)
	s2 := s * s
	s4 := s2 * s2
	t1 := s2 * (lg1 + s4*(lg3+s4*(lg5+s4*lg7)))
	t2 := s4 * (lg2 + s4*(lg4+s4*lg6))
	R := t1 + t2
	hfsq := 0.5 * f * f
	return k*ln2Hi - ((hfsq - (s*(hfsq+R) + k*ln2Lo)) - f)
}

// Constants of math.Sincos: π/4 in three parts and the sin and cos
// polynomial coefficients.
const (
	pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000
	pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000
	pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170

	sin0 = 1.58962301576546568060e-10 // 0x3de5d8fd1fd19ccd
	sin1 = -2.50507477628578072866e-8 // 0xbe5ae5e5a9291f5d
	sin2 = 2.75573136213857245213e-6  // 0x3ec71de3567d48a1
	sin3 = -1.98412698295895385996e-4 // 0xbf2a01a019bfdf03
	sin4 = 8.33333333332211858878e-3  // 0x3f8111111110f7d0
	sin5 = -1.66666666666666307295e-1 // 0xbfc5555555555548

	cos0 = -1.13585365213876817300e-11 // 0xbda8fa49a0861a9b
	cos1 = 2.08757008419747316778e-9   // 0x3e21ee9d7b4e3f05
	cos2 = -2.75573141792967388112e-7  // 0xbe927e4f7eac4bc6
	cos3 = 2.48015872888517045348e-5   // 0x3efa01a019c844f5
	cos4 = -1.38888888888730564116e-3  // 0xbf56c16c16c14f91
	cos5 = 4.16666666666665929218e-2   // 0x3fa555555555554b
)

// sincosKernel returns math.Sincos(x) for x in [0, 2π].
func sincosKernel(x float64) (sin, cos float64) {
	// Cody–Waite reduction onto the nearest even multiple of π/4. x is
	// non-negative and below 8·π/4, so the signed conversion equals
	// math.Sincos's unsigned one without its range branch.
	j := uint64(int64(x * (4 / math.Pi)))
	j += j & 1
	y := float64(int64(j))
	z := ((x - y*pi4A) - y*pi4B) - y*pi4C

	zz := z * z
	c := 1.0 - 0.5*zz + zz*zz*((((((cos0*zz)+cos1)*zz+cos2)*zz+cos3)*zz+cos4)*zz+cos5)
	s := z + z*zz*((((((sin0*zz)+sin1)*zz+sin2)*zz+sin3)*zz+sin4)*zz+sin5)

	// The octant j mod 8 is 0, 2, 4 or 6. Octants 2 and 6 swap sin and
	// cos (bit 1), octants 4 and 6 negate sin (bit 2), and octants 2
	// and 4 negate cos (bit 1 xor bit 2). Negation flips the sign bit,
	// as Go's unary minus does.
	sb, cb := math.Float64bits(s), math.Float64bits(c)
	swap := (sb ^ cb) & -(j >> 1 & 1)
	sb ^= swap ^ (j>>2&1)<<63
	cb ^= swap ^ ((j>>1^j>>2)&1)<<63
	return math.Float64frombits(sb), math.Float64frombits(cb)
}

// boxMuller turns one pair of uniforms into one pair of standard
// normals, u in (0, 1) and v in [0, 1): the first is the one Norm
// returns, the second the one it keeps as its spare.
func boxMuller(u, v float64) (float64, float64) {
	r := math.Sqrt(-2 * logKernel(u))
	sin, cos := sincosKernel(2 * math.Pi * v)
	return r * cos, r * sin
}
