package analysis

import (
	"math"
	"testing"

	"seesaw/internal/lammps"
)

func TestVelocityHistogramMatchesMaxwellBoltzmann(t *testing.T) {
	// Equilibrate a box and compare the measured speed distribution
	// against the Maxwell-Boltzmann curve — a physics-level check of
	// the whole MD engine.
	cfg := lammps.DefaultConfig()
	cfg.Atoms = 512
	s := lammps.MustNew(cfg)
	if err := s.Equilibrate(50); err != nil {
		t.Fatal(err)
	}

	h := NewVelocityHistogram(20, 5.0)
	s.Run(60, lammps.RunOptions{EveryStep: func(step int, sys *lammps.System) {
		if step%3 == 0 {
			f := sys.Snapshot()
			h.Consume(&f)
		}
	}})

	pdf := h.Result()
	temp := s.Temperature()
	dv := 5.0 / 20
	var maxDiff float64
	for i, got := range pdf {
		v := (float64(i) + 0.5) * dv
		want := MaxwellBoltzmannPDF(v, temp)
		if d := math.Abs(got - want); d > maxDiff {
			maxDiff = d
		}
	}
	// The MB peak density is ~0.6 at T=1; allow generous statistical
	// slack but catch gross shape errors.
	if maxDiff > 0.15 {
		t.Errorf("speed distribution deviates from Maxwell-Boltzmann by %v", maxDiff)
	}
}

func TestVelocityHistogramEmpty(t *testing.T) {
	h := NewVelocityHistogram(4, 1)
	for _, v := range h.Result() {
		if v != 0 {
			t.Error("empty histogram should be zero")
		}
	}
}

func TestVelocityHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad bins should panic")
		}
	}()
	NewVelocityHistogram(0, 1)
}

func TestMaxwellBoltzmannPDF(t *testing.T) {
	if MaxwellBoltzmannPDF(-1, 1) != 0 || MaxwellBoltzmannPDF(1, 0) != 0 {
		t.Error("degenerate inputs should give 0")
	}
	// The PDF integrates to ~1.
	var sum float64
	const dv = 0.01
	for v := 0.0; v < 10; v += dv {
		sum += MaxwellBoltzmannPDF(v, 1) * dv
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Errorf("MB pdf integrates to %v, want 1", sum)
	}
	// Mode at sqrt(2T).
	mode := math.Sqrt(2.0)
	if MaxwellBoltzmannPDF(mode, 1) < MaxwellBoltzmannPDF(mode*0.7, 1) ||
		MaxwellBoltzmannPDF(mode, 1) < MaxwellBoltzmannPDF(mode*1.3, 1) {
		t.Error("MB pdf mode not at sqrt(2T)")
	}
}
