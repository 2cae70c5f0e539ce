package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Median mutated its input")
	}
}

func TestMedianBounds(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return Median(xs) == 0
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		m := Median(xs)
		return m >= Min(xs) && m <= Max(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("Min/Max of empty should be 0")
	}
}

func TestVariabilityPct(t *testing.T) {
	if VariabilityPct([]float64{100}) != 0 {
		t.Error("single sample variability should be 0")
	}
	got := VariabilityPct([]float64{99, 100, 101})
	if math.Abs(got-2.0) > 1e-12 {
		t.Errorf("VariabilityPct = %v, want 2.0", got)
	}
	if VariabilityPct([]float64{0, 0}) != 0 {
		t.Error("zero-mean variability should be 0")
	}
}

func TestBlend(t *testing.T) {
	if got := Blend(10, 20, 0.25); got != 17.5 {
		t.Errorf("Blend = %v, want 17.5", got)
	}
	// Blend with weight 1 returns x; weight 0 returns prev.
	if Blend(3, 9, 1) != 3 || Blend(3, 9, 0) != 9 {
		t.Error("Blend endpoints wrong")
	}
}

func TestBlendConvexity(t *testing.T) {
	f := func(x, prev, w float64) bool {
		if math.IsNaN(x) || math.IsNaN(prev) || math.IsInf(x, 0) || math.IsInf(prev, 0) {
			return true
		}
		ww := math.Abs(math.Mod(w, 1))
		b := Blend(x, prev, ww)
		lo, hi := math.Min(x, prev), math.Max(x, prev)
		return b >= lo-1e-9*math.Abs(lo) && b <= hi+1e-9*math.Abs(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRollingWindow(t *testing.T) {
	r := NewRollingWindow(3)
	if r.Full() || r.Len() != 0 || r.Mean() != 0 {
		t.Error("fresh window state wrong")
	}
	r.Add(1)
	r.Add(2)
	if r.Mean() != 1.5 || r.Full() {
		t.Errorf("partial window mean = %v", r.Mean())
	}
	r.Add(3)
	if !r.Full() || r.Mean() != 2 {
		t.Errorf("full window mean = %v", r.Mean())
	}
	r.Add(10) // evicts 1
	if got := r.Mean(); got != 5 {
		t.Errorf("after eviction mean = %v, want 5", got)
	}
}

func TestRollingWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRollingWindow(0) should panic")
		}
	}()
	NewRollingWindow(0)
}
