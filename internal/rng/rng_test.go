package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical draws", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	a := Derive(7, "alpha")
	b := Derive(7, "beta")
	if a.Uint64() == b.Uint64() {
		t.Error("streams derived with different labels should differ")
	}
	c := Derive(7, "alpha")
	a2 := Derive(7, "alpha")
	if c.Uint64() != a2.Uint64() {
		t.Error("same (seed, label) must derive identical streams")
	}
}

func TestDeriveIndexed(t *testing.T) {
	s0 := DeriveIndexed(9, "node", 0)
	s1 := DeriveIndexed(9, "node", 1)
	if s0.Uint64() == s1.Uint64() {
		t.Error("indexed streams should differ by index")
	}
	r0 := DeriveIndexed(9, "node", 0)
	r0b := DeriveIndexed(9, "node", 0)
	if r0.Uint64() != r0b.Uint64() {
		t.Error("indexed derivation must be deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v outside [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(6)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := s.Norm()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestGauss(t *testing.T) {
	s := New(7)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Gauss(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.05 {
		t.Errorf("Gauss(10,2) mean = %v", mean)
	}
}

func TestLogNormFactor(t *testing.T) {
	if f := New(8).LogNormFactor(0); f != 1 {
		t.Errorf("LogNormFactor(0) = %v, want exactly 1", f)
	}
	s := New(9)
	for i := 0; i < 10000; i++ {
		if f := s.LogNormFactor(0.05); f <= 0 {
			t.Fatalf("LogNormFactor produced non-positive %v", f)
		}
	}
}

func TestJitterFloor(t *testing.T) {
	s := New(10)
	for i := 0; i < 100000; i++ {
		if f := JitterFrom(s.Norm(), 0.5); f < 0.05 {
			t.Fatalf("Jitter below floor: %v", f)
		}
	}
}

func TestJitterZeroSigma(t *testing.T) {
	f := func(seed uint64) bool {
		return JitterFrom(New(seed).Norm(), 0) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
