package lammps

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// smallConfig returns a quick-to-simulate but physically meaningful
// system.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Atoms = 256
	return cfg
}

func step(s *System) {
	s.InitialIntegrate()
	if s.NeedsRebuild() {
		s.BuildNeighbors()
	}
	s.ComputeForces()
	s.FinalIntegrate()
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Atoms: 1, Density: 0.8, Temp: 1, Dt: 0.005, Cutoff: 2.5},
		{Atoms: 100, Density: 0, Temp: 1, Dt: 0.005, Cutoff: 2.5},
		{Atoms: 100, Density: 0.8, Temp: 1, Dt: 0, Cutoff: 2.5},
		{Atoms: 100, Density: 0.8, Temp: 1, Dt: 0.005, Cutoff: -1},
		{Atoms: 100, Density: 0.8, Temp: 1, Dt: 0.005, Cutoff: 2.5, IonFraction: 0.9},
		{Atoms: 100, Density: math.NaN(), Temp: 1, Dt: 0.005, Cutoff: 2.5},
		{Atoms: 100, Density: math.Inf(1), Temp: 1, Dt: 0.005, Cutoff: 2.5},
		{Atoms: 100, Density: 0.8, Temp: math.NaN(), Dt: 0.005, Cutoff: 2.5},
		{Atoms: 100, Density: 0.8, Temp: math.Inf(1), Dt: 0.005, Cutoff: 2.5},
		{Atoms: 100, Density: 0.8, Temp: -1, Dt: 0.005, Cutoff: 2.5},
		{Atoms: 100, Density: 0.8, Temp: 1, Dt: math.Inf(1), Cutoff: 2.5},
		{Atoms: 100, Density: 0.8, Temp: 1, Dt: 0.005, Cutoff: math.NaN()},
		{Atoms: 100, Density: 0.8, Temp: 1, Dt: 0.005, Cutoff: 2.5, Skin: math.Inf(1)},
		{Atoms: 100, Density: 0.8, Temp: 1, Dt: 0.005, Cutoff: 2.5, IonFraction: math.NaN()},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	cold := DefaultConfig()
	cold.Temp = 0
	if err := cold.Validate(); err != nil {
		t.Errorf("cold start invalid: %v", err)
	}
}

func TestNewRejectsTinyBox(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Atoms = 8 // box would be smaller than 2*(cutoff+skin)
	if _, err := New(cfg); err == nil {
		t.Error("tiny box should be rejected")
	}
}

func TestInitialTemperature(t *testing.T) {
	s := MustNew(smallConfig())
	if got := s.Temperature(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("initial temperature = %v, want exactly 1.0", got)
	}
}

func TestInitialMomentumZero(t *testing.T) {
	s := MustNew(smallConfig())
	m := s.TotalMomentum()
	if math.Abs(m[0])+math.Abs(m[1])+math.Abs(m[2]) > 1e-9 {
		t.Errorf("initial net momentum = %v, want 0", m)
	}
}

func TestMomentumConserved(t *testing.T) {
	s := MustNew(smallConfig())
	for i := 0; i < 50; i++ {
		step(s)
	}
	m := s.TotalMomentum()
	if mag := math.Sqrt(m.Norm2()); mag > 1e-8 {
		t.Errorf("momentum drifted to |p| = %v after 50 steps", mag)
	}
}

func TestEnergyConservation(t *testing.T) {
	// NVE with velocity-Verlet must conserve total energy to a small
	// relative drift.
	s := MustNew(smallConfig())
	// Let the lattice melt a little first.
	for i := 0; i < 20; i++ {
		step(s)
	}
	e0 := s.TotalEnergy()
	for i := 0; i < 200; i++ {
		step(s)
	}
	e1 := s.TotalEnergy()
	drift := math.Abs(e1-e0) / math.Abs(e0)
	if drift > 0.01 {
		t.Errorf("energy drift %.4f%% over 200 steps exceeds 1%%", drift*100)
	}
}

func TestPositionsStayWrapped(t *testing.T) {
	s := MustNew(smallConfig())
	for i := 0; i < 30; i++ {
		step(s)
	}
	for i, p := range s.Pos {
		for k := 0; k < 3; k++ {
			if p[k] < 0 || p[k] >= s.Box {
				t.Fatalf("atom %d coordinate %d out of box: %v", i, k, p[k])
			}
		}
	}
}

func TestUnwrappedTracksDisplacement(t *testing.T) {
	s := MustNew(smallConfig())
	u0 := append([]Vec3(nil), s.Unwrp...)
	for i := 0; i < 50; i++ {
		step(s)
	}
	var moved int
	for i := range s.Unwrp {
		if s.Unwrp[i].Sub(u0[i]).Norm2() > 1e-6 {
			moved++
		}
	}
	if moved < s.N/2 {
		t.Errorf("only %d/%d atoms moved; dynamics look frozen", moved, s.N)
	}
}

func TestSpeciesAssignment(t *testing.T) {
	s := MustNew(smallConfig())
	counts := map[int]int{}
	for _, typ := range s.Typ {
		counts[typ]++
	}
	nIon := int(float64(s.N) * smallConfig().IonFraction)
	if counts[SpeciesHydronium] != nIon || counts[SpeciesIon] != nIon {
		t.Errorf("ion counts = %d/%d, want %d each", counts[SpeciesHydronium], counts[SpeciesIon], nIon)
	}
	if counts[SpeciesSolvent] != s.N-2*nIon {
		t.Errorf("solvent count = %d", counts[SpeciesSolvent])
	}
}

// TestNeighborListMatchesBruteForce checks the cell-list half list
// against every pair, on a box whose 27-cell stencil reaches every cell
// (3 cells per side) and on one where it prunes (4 per side).
func TestNeighborListMatchesBruteForce(t *testing.T) {
	for _, atoms := range []int{512, 1200} {
		t.Run(fmt.Sprintf("atoms=%d", atoms), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Atoms = atoms
			s := MustNew(cfg)
			rc := cfg.Cutoff + cfg.Skin
			if int(s.Box/rc) < 3 {
				t.Fatalf("box %.2f takes the brute-force path", s.Box)
			}
			rc2 := rc * rc

			// Collect cell-list pairs.
			listPairs := map[[2]int]bool{}
			var dup int
			for i := 0; i < s.N; i++ {
				for k := s.nbrHead[i]; k < s.nbrHead[i+1]; k++ {
					j := int(s.nbrList[k])
					a, b := i, j
					if a > b {
						a, b = b, a
					}
					if listPairs[[2]int{a, b}] {
						dup++
					}
					listPairs[[2]int{a, b}] = true
				}
			}
			// Brute-force pairs.
			var missing, extra int
			for i := 0; i < s.N; i++ {
				for j := i + 1; j < s.N; j++ {
					d := s.minimumImage(s.Pos[i].Sub(s.Pos[j]))
					within := d.Norm2() < rc2
					inList := listPairs[[2]int{i, j}]
					if within && !inList {
						missing++
					}
					if !within && inList {
						extra++
					}
				}
			}
			if missing > 0 {
				t.Errorf("%d in-range pairs missing from neighbor list", missing)
			}
			if extra > 0 {
				t.Errorf("%d out-of-range pairs present in neighbor list", extra)
			}
			if dup > 0 {
				t.Errorf("%d pairs listed twice", dup)
			}
		})
	}
}

func TestNeedsRebuildAfterMotion(t *testing.T) {
	s := MustNew(smallConfig())
	if s.NeedsRebuild() {
		t.Error("fresh system should not need a rebuild")
	}
	// Artificially displace one atom beyond half the skin.
	s.Pos[0][0] = s.wrap(s.Pos[0][0] + smallConfig().Skin)
	if !s.NeedsRebuild() {
		t.Error("moved atom should trigger a rebuild")
	}
}

func TestForcesAreNewtonian(t *testing.T) {
	s := MustNew(smallConfig())
	var f Vec3
	for _, fi := range s.Force {
		f = f.Add(fi)
	}
	if mag := math.Sqrt(f.Norm2()); mag > 1e-9 {
		t.Errorf("net force |F| = %v, want ~0 (Newton's third law)", mag)
	}
}

func TestDeterministicTrajectories(t *testing.T) {
	mk := func() float64 {
		s := MustNew(smallConfig())
		for i := 0; i < 30; i++ {
			step(s)
		}
		return s.TotalEnergy()
	}
	if a, b := mk(), mk(); a != b {
		t.Errorf("same seed produced different trajectories: %v vs %v", a, b)
	}
}

func TestSeedChangesTrajectory(t *testing.T) {
	cfg := smallConfig()
	cfg.Seed = 2
	a := MustNew(smallConfig())
	b := MustNew(cfg)
	if a.Pos[0] == b.Pos[0] && a.Vel[0] == b.Vel[0] {
		t.Error("different seeds produced identical initial state")
	}
}

func TestSnapshotIndependence(t *testing.T) {
	s := MustNew(smallConfig())
	f := s.Snapshot()
	orig := f.Pos[0]
	step(s)
	if f.Pos[0] != orig {
		t.Error("snapshot mutated by subsequent steps")
	}
	if f.Step != 0 {
		t.Errorf("snapshot step = %d, want 0", f.Step)
	}
}

func TestWorkCounts(t *testing.T) {
	s := MustNew(smallConfig())
	wi := s.InitialIntegrate()
	if wi.Ops != float64(s.N)*9 {
		t.Errorf("integrate ops = %v", wi.Ops)
	}
	wn := s.BuildNeighbors()
	if wn.Ops <= 0 || wn.Bytes != s.N*24 {
		t.Errorf("neighbor work = %+v", wn)
	}
	wf := s.ComputeForces()
	if wf.Ops <= 0 {
		t.Errorf("force ops = %v", wf.Ops)
	}
	wfi := s.FinalIntegrate()
	if wfi.Ops != float64(s.N)*3 {
		t.Errorf("final integrate ops = %v", wfi.Ops)
	}
	var sum WorkCount
	sum.Add(wi)
	sum.Add(wn)
	if sum.Ops != wi.Ops+wn.Ops || sum.Bytes != wi.Bytes+wn.Bytes {
		t.Error("WorkCount.Add wrong")
	}
}

func TestStepCounter(t *testing.T) {
	s := MustNew(smallConfig())
	for i := 0; i < 5; i++ {
		step(s)
	}
	if s.Step() != 5 {
		t.Errorf("step counter = %d, want 5", s.Step())
	}
}

func TestFrameAndThermoBytes(t *testing.T) {
	s := MustNew(smallConfig())
	if s.FrameBytes() != s.N*(3*8*3+1) {
		t.Errorf("FrameBytes = %d", s.FrameBytes())
	}
	if s.ThermoBytes() != 48 {
		t.Errorf("ThermoBytes = %d", s.ThermoBytes())
	}
}

func TestVec3Ops(t *testing.T) {
	a, b := Vec3{1, 2, 3}, Vec3{4, 5, 6}
	if a.Add(b) != (Vec3{5, 7, 9}) {
		t.Error("Add wrong")
	}
	if b.Sub(a) != (Vec3{3, 3, 3}) {
		t.Error("Sub wrong")
	}
	if a.Scale(2) != (Vec3{2, 4, 6}) {
		t.Error("Scale wrong")
	}
	if a.Dot(b) != 32 {
		t.Error("Dot wrong")
	}
	if a.Norm2() != 14 {
		t.Error("Norm2 wrong")
	}
}

func TestMinimumImageProperty(t *testing.T) {
	s := MustNew(smallConfig())
	half := s.Box / 2
	f := func(x, y, z float64) bool {
		d := s.minimumImage(Vec3{mod(x, s.Box), mod(y, s.Box), mod(z, s.Box)})
		return math.Abs(d[0]) <= half+1e-9 && math.Abs(d[1]) <= half+1e-9 && math.Abs(d[2]) <= half+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrapProperty(t *testing.T) {
	s := MustNew(smallConfig())
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		w := s.wrap(x)
		return w >= 0 && w < s.Box
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mod(x, m float64) float64 {
	v := math.Mod(x, m)
	if v < 0 {
		v += m
	}
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func TestPressurePlausible(t *testing.T) {
	// The LJ equation of state at rho=0.8, T~1 gives a reduced pressure
	// of order 1 (slightly positive); assert a loose physical band
	// after some equilibration.
	s := MustNew(smallConfig())
	if err := s.Equilibrate(30); err != nil {
		t.Fatal(err)
	}
	s.Run(30, RunOptions{})
	p := s.Pressure()
	if p < -2 || p > 8 {
		t.Errorf("reduced pressure %v outside plausible LJ-liquid band", p)
	}
}

func TestVirialConsistency(t *testing.T) {
	// Doubling temperature raises the kinetic part of the pressure.
	cold := MustNew(smallConfig())
	hotCfg := smallConfig()
	hotCfg.Temp = 2.0
	hot := MustNew(hotCfg)
	if hot.Pressure() <= cold.Pressure() {
		t.Errorf("hotter system pressure %v not above colder %v", hot.Pressure(), cold.Pressure())
	}
}
