package lammps

import (
	"math"
	"strings"
	"testing"
)

func TestThermostatValidation(t *testing.T) {
	if _, err := NewRescaleThermostat(1, 0); err == nil {
		t.Error("zero period should fail")
	}
	if _, err := NewBerendsenThermostat(1, 0); err == nil {
		t.Error("zero tau should fail")
	}
	// Both thermostats take the temperatures Config takes, zero (a cold
	// start) included, and reject the rest.
	for _, tc := range []struct {
		target float64
		ok     bool
	}{
		{0, true}, {1.2, true}, {-1, false}, {math.NaN(), false}, {math.Inf(1), false},
	} {
		_, rerr := NewRescaleThermostat(tc.target, 1)
		_, berr := NewBerendsenThermostat(tc.target, 1)
		for name, err := range map[string]error{"rescale": rerr, "berendsen": berr} {
			if (err == nil) != tc.ok {
				t.Errorf("%s target %g: err = %v, want accepted %v", name, tc.target, err, tc.ok)
			}
		}
	}
}

func TestRescaleThermostatHoldsTemperature(t *testing.T) {
	cfg := smallConfig()
	cfg.Temp = 1.4
	s := MustNew(cfg)
	th, err := NewRescaleThermostat(1.4, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(60, RunOptions{Thermostat: th})
	if got := s.Temperature(); math.Abs(got-1.4) > 0.15 {
		t.Errorf("temperature %v drifted from thermostat target 1.4", got)
	}
}

func TestBerendsenRelaxesTowardTarget(t *testing.T) {
	s := MustNew(smallConfig()) // starts at T = 1.0
	th, err := NewBerendsenThermostat(0.6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(100, RunOptions{Thermostat: th})
	got := s.Temperature()
	if math.Abs(got-0.6) > 0.1 {
		t.Errorf("temperature %v did not relax toward 0.6", got)
	}
}

func TestRunDriverCountsSteps(t *testing.T) {
	s := MustNew(smallConfig())
	var seen []int
	w := s.Run(7, RunOptions{EveryStep: func(step int, _ *System) { seen = append(seen, step) }})
	if s.Step() != 7 {
		t.Errorf("step counter = %d", s.Step())
	}
	if len(seen) != 7 || seen[0] != 1 || seen[6] != 7 {
		t.Errorf("EveryStep callbacks = %v", seen)
	}
	if w.Ops <= 0 {
		t.Error("no work accumulated")
	}
}

func TestEquilibrate(t *testing.T) {
	for _, tc := range []struct {
		temp, tol float64
		steps     int
	}{
		{0.9, 0.2, 40},
		// A cold start: the last rescale, on step 100, leaves it at zero.
		{0, 0, 100},
	} {
		cfg := smallConfig()
		cfg.Temp = tc.temp
		s := MustNew(cfg)
		if err := s.Equilibrate(tc.steps); err != nil {
			t.Fatalf("T*=%g: %v", tc.temp, err)
		}
		if got := s.Temperature(); math.Abs(got-tc.temp) > tc.tol {
			t.Errorf("temperature %v after equilibration, want %g within %g", got, tc.temp, tc.tol)
		}
		m := s.TotalMomentum()
		if mag := math.Sqrt(m.Norm2()); mag > 1e-9 {
			t.Errorf("T*=%g: net momentum %v after equilibration", tc.temp, mag)
		}
	}
}

func TestWriteXYZ(t *testing.T) {
	s := MustNew(smallConfig())
	f := s.Snapshot()
	var sb strings.Builder
	if err := WriteXYZ(&sb, &f); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != s.N+2 {
		t.Fatalf("xyz has %d lines, want %d", len(lines), s.N+2)
	}
	if lines[0] != "256" {
		t.Errorf("atom count line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "step=0") || !strings.Contains(lines[1], "box=") {
		t.Errorf("comment line = %q", lines[1])
	}
	// Species symbols present: ions first, then solvent.
	if !strings.HasPrefix(lines[2], "H3O ") {
		t.Errorf("first atom line = %q, want hydronium", lines[2])
	}
	if !strings.HasPrefix(lines[len(lines)-1], "O ") {
		t.Errorf("last atom line = %q, want solvent", lines[len(lines)-1])
	}
}

func TestThermoLine(t *testing.T) {
	s := MustNew(smallConfig())
	th := s.ThermoLine()
	if th.Step != 0 {
		t.Errorf("step = %d", th.Step)
	}
	if math.Abs(th.Total-(th.Kinetic+th.Potential)) > 1e-9 {
		t.Error("total != ke + pe")
	}
	if math.Abs(th.Temp-1.0) > 1e-9 {
		t.Errorf("temp = %v", th.Temp)
	}

	var sb strings.Builder
	if err := WriteThermoHeader(&sb); err != nil {
		t.Fatal(err)
	}
	if err := WriteThermo(&sb, th); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "step,temp,ke,pe,etotal") {
		t.Errorf("thermo header wrong: %q", out)
	}
	if !strings.Contains(out, "\n0,1.000000,") {
		t.Errorf("thermo line wrong: %q", out)
	}
}
