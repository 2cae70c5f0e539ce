// Thermostats and run drivers. The paper's benchmark runs NVE inside the
// Verlet loop, but equilibrating the water box before production — and
// the NVT runs common in practice — need temperature control.
package lammps

import (
	"fmt"
	"math"
)

// Thermostat rescales velocities toward a target temperature; Apply is
// called once per Verlet step after the final integration.
type Thermostat interface {
	// Name identifies the thermostat.
	Name() string
	// Apply adjusts the system's velocities in place.
	Apply(s *System)
}

// RescaleThermostat hard-rescales velocities to the target temperature
// every Period steps — the crude but robust equilibration tool.
type RescaleThermostat struct {
	// Target is the desired reduced temperature.
	Target float64
	// Period is how many steps pass between rescales (>= 1).
	Period int

	steps int
}

// checkTarget accepts the temperatures Config accepts: finite and
// non-negative, zero being a cold start.
func checkTarget(target float64) error {
	if math.IsNaN(target) || math.IsInf(target, 0) || target < 0 {
		return fmt.Errorf("lammps: thermostat target %g must be finite and non-negative", target)
	}
	return nil
}

// NewRescaleThermostat returns a velocity-rescale thermostat.
func NewRescaleThermostat(target float64, period int) (*RescaleThermostat, error) {
	if err := checkTarget(target); err != nil {
		return nil, err
	}
	if period < 1 {
		return nil, fmt.Errorf("lammps: thermostat period %d must be >= 1", period)
	}
	return &RescaleThermostat{Target: target, Period: period}, nil
}

// Name implements Thermostat.
func (*RescaleThermostat) Name() string { return "rescale" }

// Apply implements Thermostat.
func (t *RescaleThermostat) Apply(s *System) {
	t.steps++
	if t.steps%t.Period != 0 {
		return
	}
	cur := s.Temperature()
	if cur <= 0 {
		return
	}
	f := math.Sqrt(t.Target / cur)
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Scale(f)
	}
}

// BerendsenThermostat couples the system weakly to a heat bath: each
// step velocities are scaled by sqrt(1 + dt/tau (T0/T - 1)), relaxing
// the temperature exponentially with time constant tau without the
// rescale thermostat's hard kicks.
type BerendsenThermostat struct {
	// Target is the desired reduced temperature.
	Target float64
	// Tau is the coupling time constant in reduced time units.
	Tau float64
}

// NewBerendsenThermostat returns a weak-coupling thermostat.
func NewBerendsenThermostat(target, tau float64) (*BerendsenThermostat, error) {
	if err := checkTarget(target); err != nil {
		return nil, err
	}
	if tau <= 0 {
		return nil, fmt.Errorf("lammps: berendsen tau %g must be positive", tau)
	}
	return &BerendsenThermostat{Target: target, Tau: tau}, nil
}

// Name implements Thermostat.
func (*BerendsenThermostat) Name() string { return "berendsen" }

// Apply implements Thermostat.
func (b *BerendsenThermostat) Apply(s *System) {
	cur := s.Temperature()
	if cur <= 0 {
		return
	}
	lambda2 := 1 + s.cfg.Dt/b.Tau*(b.Target/cur-1)
	if lambda2 <= 0 {
		return
	}
	f := math.Sqrt(lambda2)
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Scale(f)
	}
}

// RunOptions configure the convenience step driver.
type RunOptions struct {
	// Thermostat, when non-nil, is applied after each step (NVT);
	// nil runs NVE.
	Thermostat Thermostat
	// EveryStep, when non-nil, is invoked after each completed step
	// with the step index (1-based), e.g. to capture frames.
	EveryStep func(step int, s *System)
}

// Run advances the system n Verlet steps, rebuilding neighbor lists when
// the skin criterion requires it, and returns the accumulated work.
func (s *System) Run(n int, opt RunOptions) WorkCount {
	var total WorkCount
	for i := 1; i <= n; i++ {
		total.Add(s.InitialIntegrate())
		if s.NeedsRebuild() {
			total.Add(s.BuildNeighbors())
		}
		total.Add(s.ComputeForces())
		total.Add(s.FinalIntegrate())
		if opt.Thermostat != nil {
			opt.Thermostat.Apply(s)
		}
		if opt.EveryStep != nil {
			opt.EveryStep(i, s)
		}
	}
	return total
}

// Equilibrate runs n steps under a rescale thermostat at the
// configuration's temperature, then removes any accumulated net
// momentum — the standard preparation before production analysis runs.
func (s *System) Equilibrate(n int) error {
	th, err := NewRescaleThermostat(s.cfg.Temp, 5)
	if err != nil {
		return err
	}
	s.Run(n, RunOptions{Thermostat: th})
	// Remove thermostat-introduced drift.
	m := s.TotalMomentum().Scale(1 / float64(s.N))
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Sub(m)
	}
	return nil
}
