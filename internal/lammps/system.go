// Package lammps implements a miniature classical molecular-dynamics
// engine patterned on the LAMMPS workload the paper evaluates: a box of
// solvent particles with two dissolved ion species, advanced by the
// velocity-Verlet algorithm with cell-list/Verlet neighbor search and a
// truncated Lennard-Jones potential (reduced LJ units: sigma = eps =
// m = 1).
//
// Each simulation rank owns an independent periodic sub-box (the paper's
// assumption that "simulation processes have equal work"); halo traffic
// between ranks is accounted as communication work rather than force
// coupling. The engine does real numerics — analyses downstream compute
// genuine RDF/VACF/MSD physics from its frames — while also emitting
// per-phase work counts (pair interactions, neighbor operations, bytes
// moved) that the machine model converts to virtual time and power.
package lammps

import (
	"fmt"
	"math"

	"seesaw/internal/rng"
)

// Species labels for the water-box benchmark: solvent plus the two ion
// types of the paper's custom benchmark ("two types of ions" solvated in
// water).
const (
	SpeciesSolvent = iota
	SpeciesHydronium
	SpeciesIon
	numSpecies
)

// Vec3 is a 3-component vector.
type Vec3 [3]float64

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v[0] + w[0], v[1] + w[1], v[2] + w[2]} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v[0] - w[0], v[1] - w[1], v[2] - w[2]} }

// Scale returns v * s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v[0] * s, v[1] * s, v[2] * s} }

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v[0]*w[0] + v[1]*w[1] + v[2]*w[2] }

// Norm2 returns the squared magnitude.
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Config describes one rank's sub-box.
type Config struct {
	// Atoms is the particle count of this rank's sub-box.
	Atoms int
	// Density is the reduced number density (atoms per sigma^3).
	Density float64
	// Temp is the reduced initial temperature.
	Temp float64
	// Dt is the Verlet timestep in reduced time units.
	Dt float64
	// Cutoff is the LJ interaction cutoff (sigma units).
	Cutoff float64
	// Skin is the Verlet-list skin distance.
	Skin float64
	// IonFraction is the fraction of atoms assigned to each ion
	// species (hydronium and the counter-ion).
	IonFraction float64
	// Seed drives the deterministic velocity initialization and lattice
	// perturbation.
	Seed uint64
}

// DefaultConfig returns a liquid-state configuration that is stable under
// velocity-Verlet at the default timestep.
func DefaultConfig() Config {
	return Config{
		Atoms:       512,
		Density:     0.8,
		Temp:        1.0,
		Dt:          0.005,
		Cutoff:      2.5,
		Skin:        0.3,
		IonFraction: 0.05,
		Seed:        1,
	}
}

// Validate reports configuration errors. Every float field must be
// finite; a zero temperature is a cold start.
func (c Config) Validate() error {
	if c.Atoms < 2 {
		return fmt.Errorf("lammps: need at least 2 atoms, got %d", c.Atoms)
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"density", c.Density}, {"temperature", c.Temp}, {"timestep", c.Dt},
		{"cutoff", c.Cutoff}, {"skin", c.Skin}, {"ion fraction", c.IonFraction},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("lammps: %s must be finite, got %g", f.name, f.v)
		}
	}
	if c.Density <= 0 {
		return fmt.Errorf("lammps: density must be positive, got %g", c.Density)
	}
	if c.Temp < 0 {
		return fmt.Errorf("lammps: temperature must not be negative, got %g", c.Temp)
	}
	if c.Dt <= 0 {
		return fmt.Errorf("lammps: timestep must be positive, got %g", c.Dt)
	}
	if c.Cutoff <= 0 || c.Skin < 0 {
		return fmt.Errorf("lammps: invalid cutoff %g / skin %g", c.Cutoff, c.Skin)
	}
	if c.IonFraction < 0 || c.IonFraction > 0.5 {
		return fmt.Errorf("lammps: ion fraction %g outside [0, 0.5]", c.IonFraction)
	}
	return nil
}

// WorkCount measures the computational work of one phase execution; the
// machine model converts it to time and power.
type WorkCount struct {
	// Ops is an abstract operation count (pair evaluations, per-atom
	// updates) for the phase.
	Ops float64
	// Bytes is the communication volume the phase induces.
	Bytes int
}

// Add accumulates another count.
func (w *WorkCount) Add(o WorkCount) {
	w.Ops += o.Ops
	w.Bytes += o.Bytes
}

// System is one rank's particle system.
type System struct {
	cfg Config
	N   int
	Box float64 // cubic box side length

	Pos   []Vec3 // wrapped positions in [0, Box)
	Unwrp []Vec3 // unwrapped positions (for MSD)
	Vel   []Vec3
	Force []Vec3
	Typ   []int

	// Verlet neighbor list (half list: j > i pairs only).
	nbrHead []int // index into nbrList per atom
	nbrList []int32
	lastPos []Vec3 // positions at last rebuild (for skin check)

	// Cell-list scratch, kept so a rebuild after the first allocates
	// nothing: each cell's chain head, each atom's next atom in its
	// cell's chain, and each atom's cell.
	heads []int32
	next  []int32
	cell  []int32

	step   int
	pe     float64 // potential energy from last force evaluation
	virial float64 // sum of r . F over pairs, from last force evaluation
}

// New constructs and initializes a system: perturbed cubic lattice
// positions, Maxwell-Boltzmann velocities with zero net momentum, species
// assigned deterministically.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Atoms
	box := math.Cbrt(float64(n) / cfg.Density)
	minBox := 2 * (cfg.Cutoff + cfg.Skin)
	if box < minBox {
		return nil, fmt.Errorf("lammps: box %.2f too small for cutoff+skin %.2f (increase Atoms or Density)", box, minBox/2)
	}
	s := &System{
		cfg:     cfg,
		N:       n,
		Box:     box,
		Pos:     make([]Vec3, n),
		Unwrp:   make([]Vec3, n),
		Vel:     make([]Vec3, n),
		Force:   make([]Vec3, n),
		Typ:     make([]int, n),
		nbrHead: make([]int, n+1),
		lastPos: make([]Vec3, n),
	}
	s.initLattice()
	s.initVelocities()
	s.initSpecies()
	s.BuildNeighbors()
	s.ComputeForces()
	return s, nil
}

// MustNew is New that panics on error, for tests and examples with
// known-good configurations.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Step returns the number of completed Verlet steps.
func (s *System) Step() int { return s.step }

// initLattice places atoms on a simple cubic lattice with a small
// deterministic perturbation to break symmetry.
func (s *System) initLattice() {
	perCell := int(math.Ceil(math.Cbrt(float64(s.N))))
	spacing := s.Box / float64(perCell)
	r := rng.Derive(s.cfg.Seed, "lattice")
	i := 0
	for x := 0; x < perCell && i < s.N; x++ {
		for y := 0; y < perCell && i < s.N; y++ {
			for z := 0; z < perCell && i < s.N; z++ {
				p := Vec3{
					(float64(x) + 0.5 + 0.05*(r.Float64()-0.5)) * spacing,
					(float64(y) + 0.5 + 0.05*(r.Float64()-0.5)) * spacing,
					(float64(z) + 0.5 + 0.05*(r.Float64()-0.5)) * spacing,
				}
				s.Pos[i] = p
				s.Unwrp[i] = p
				i++
			}
		}
	}
}

// initVelocities draws Maxwell-Boltzmann velocities at the configured
// temperature, removes net momentum, and rescales to the exact target
// temperature.
func (s *System) initVelocities() {
	r := rng.Derive(s.cfg.Seed, "velocities")
	sigma := math.Sqrt(s.cfg.Temp)
	var mom Vec3
	for i := range s.Vel {
		v := Vec3{r.Gauss(0, sigma), r.Gauss(0, sigma), r.Gauss(0, sigma)}
		s.Vel[i] = v
		mom = mom.Add(v)
	}
	// Zero total momentum.
	shift := mom.Scale(1 / float64(s.N))
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Sub(shift)
	}
	// Rescale to the exact target temperature.
	t := s.Temperature()
	if t > 0 {
		f := math.Sqrt(s.cfg.Temp / t)
		for i := range s.Vel {
			s.Vel[i] = s.Vel[i].Scale(f)
		}
	}
}

// initSpecies assigns ion species to a deterministic subset of atoms.
func (s *System) initSpecies() {
	nIon := int(float64(s.N) * s.cfg.IonFraction)
	for i := 0; i < s.N; i++ {
		switch {
		case i < nIon:
			s.Typ[i] = SpeciesHydronium
		case i < 2*nIon:
			s.Typ[i] = SpeciesIon
		default:
			s.Typ[i] = SpeciesSolvent
		}
	}
}

// wrap maps a coordinate into [0, Box).
func (s *System) wrap(x float64) float64 {
	x = math.Mod(x, s.Box)
	if x < 0 {
		x += s.Box
	}
	return x
}

// minimumImage returns the displacement d adjusted to the nearest
// periodic image.
func (s *System) minimumImage(d Vec3) Vec3 {
	half := s.Box / 2
	for k := range d {
		d[k] = imageDist(d[k], half, s.Box)
	}
	return d
}

// imageDist adjusts one displacement component to the nearest periodic
// image.
func imageDist(d, half, box float64) float64 {
	if d > half {
		d -= box
	} else if d < -half {
		d += box
	}
	return d
}

// InitialIntegrate performs the first half of a velocity-Verlet step:
// half-kick the velocities and drift the positions (Section V, step 1).
func (s *System) InitialIntegrate() WorkCount {
	dt := s.cfg.Dt
	half := dt / 2
	for i := 0; i < s.N; i++ {
		s.Vel[i] = s.Vel[i].Add(s.Force[i].Scale(half))
		d := s.Vel[i].Scale(dt)
		s.Unwrp[i] = s.Unwrp[i].Add(d)
		p := s.Pos[i].Add(d)
		s.Pos[i] = Vec3{s.wrap(p[0]), s.wrap(p[1]), s.wrap(p[2])}
	}
	return WorkCount{Ops: float64(s.N) * 9}
}

// FinalIntegrate performs the second velocity half-kick (step 6's tail).
func (s *System) FinalIntegrate() WorkCount {
	half := s.cfg.Dt / 2
	for i := 0; i < s.N; i++ {
		s.Vel[i] = s.Vel[i].Add(s.Force[i].Scale(half))
	}
	s.step++
	return WorkCount{Ops: float64(s.N) * 3}
}

// NeedsRebuild reports whether any atom moved more than half the skin
// since the last neighbor build.
func (s *System) NeedsRebuild() bool {
	limit := s.cfg.Skin * s.cfg.Skin / 4
	for i := 0; i < s.N; i++ {
		d := s.minimumImage(s.Pos[i].Sub(s.lastPos[i]))
		if d.Norm2() > limit {
			return true
		}
	}
	return false
}

// BuildNeighbors reconstructs the Verlet half-list using a cell list
// (the communication-intensive "update neighbor lists" phase, step 5).
//
// The pair loop holds coordinates in scalar locals: a Vec3 is an array,
// which the compiler keeps in memory, so the Vec3 methods would take
// every component through the stack. Each expression keeps the shape of
// the method it stands for, so the results keep their bits
// (TestTrajectoryDigests). Atoms are pushed onto their cell's chain in
// increasing index order, so every chain runs in descending index order
// and the walk for atom i ends at the first j <= i.
func (s *System) BuildNeighbors() WorkCount {
	rc := s.cfg.Cutoff + s.cfg.Skin
	rc2 := rc * rc
	ncell := int(s.Box / rc)
	if ncell < 3 {
		// Too few cells for a 27-stencil without double counting: use
		// the O(N^2) path (only reached for very small test systems).
		return s.buildNeighborsBrute(rc2)
	}
	cellSize := s.Box / float64(ncell)

	// Bin atoms into cells.
	nc3 := ncell * ncell * ncell
	if len(s.heads) != nc3 {
		s.heads = make([]int32, nc3)
		s.next = make([]int32, s.N)
		s.cell = make([]int32, s.N)
	}
	heads, next, cell := s.heads, s.next, s.cell
	for i := range heads {
		heads[i] = -1
	}
	cellCoord := func(x float64) int {
		c := int(x / cellSize)
		if c >= ncell {
			c = ncell - 1
		}
		return c
	}
	for i := 0; i < s.N; i++ {
		p := &s.Pos[i]
		c := (cellCoord(p[0])*ncell+cellCoord(p[1]))*ncell + cellCoord(p[2])
		cell[i] = int32(c)
		next[i] = heads[c]
		heads[c] = int32(i)
	}

	box, half := s.Box, s.Box/2
	s.nbrList = s.nbrList[:0]
	ops := 0
	for i := 0; i < s.N; i++ {
		s.nbrHead[i] = len(s.nbrList)
		xi, yi, zi := s.Pos[i][0], s.Pos[i][1], s.Pos[i][2]
		ci := int(cell[i])
		cx := ci / (ncell * ncell)
		cy := (ci / ncell) % ncell
		cz := ci % ncell
		for dx := -1; dx <= 1; dx++ {
			nx := (cx + dx + ncell) % ncell
			for dy := -1; dy <= 1; dy++ {
				nxy := (nx*ncell + (cy+dy+ncell)%ncell) * ncell
				for dz := -1; dz <= 1; dz++ {
					for j := heads[nxy+(cz+dz+ncell)%ncell]; int(j) > i; j = next[j] {
						ops++
						pj := &s.Pos[j]
						ddx := imageDist(xi-pj[0], half, box)
						ddy := imageDist(yi-pj[1], half, box)
						ddz := imageDist(zi-pj[2], half, box)
						if ddx*ddx+ddy*ddy+ddz*ddz < rc2 {
							s.nbrList = append(s.nbrList, j)
						}
					}
				}
			}
		}
	}
	s.nbrHead[s.N] = len(s.nbrList)
	copy(s.lastPos, s.Pos)
	// Neighbor rebuilds imply halo position exchange: ~24 bytes/atom of
	// boundary traffic.
	return WorkCount{Ops: float64(ops), Bytes: s.N * 24}
}

// buildNeighborsBrute is the O(N^2) neighbor build used when the box is
// too small for the cell-list stencil.
func (s *System) buildNeighborsBrute(rc2 float64) WorkCount {
	s.nbrList = s.nbrList[:0]
	var ops float64
	for i := 0; i < s.N; i++ {
		s.nbrHead[i] = len(s.nbrList)
		pi := s.Pos[i]
		for j := i + 1; j < s.N; j++ {
			ops++
			d := s.minimumImage(pi.Sub(s.Pos[j]))
			if d.Norm2() < rc2 {
				s.nbrList = append(s.nbrList, int32(j))
			}
		}
	}
	s.nbrHead[s.N] = len(s.nbrList)
	copy(s.lastPos, s.Pos)
	return WorkCount{Ops: ops, Bytes: s.N * 24}
}

// ComputeForces evaluates truncated, shifted Lennard-Jones forces over
// the Verlet list (step 6), returning the pair-evaluation work. Like
// BuildNeighbors, it holds coordinates, displacements and forces in
// scalar locals, each expression in the shape of the Vec3 method it
// stands for.
func (s *System) ComputeForces() WorkCount {
	rc2 := s.cfg.Cutoff * s.cfg.Cutoff
	// Potential shift so U(rc) = 0.
	irc2 := 1 / rc2
	irc6 := irc2 * irc2 * irc2
	shift := 4 * (irc6*irc6 - irc6)

	for i := range s.Force {
		s.Force[i] = Vec3{}
	}
	box, half := s.Box, s.Box/2
	var pe, virial float64
	ops := 0
	for i := 0; i < s.N; i++ {
		fx, fy, fz := s.Force[i][0], s.Force[i][1], s.Force[i][2]
		xi, yi, zi := s.Pos[i][0], s.Pos[i][1], s.Pos[i][2]
		nbrs := s.nbrList[s.nbrHead[i]:s.nbrHead[i+1]]
		ops += len(nbrs)
		for _, j := range nbrs {
			pj := &s.Pos[j]
			dx := imageDist(xi-pj[0], half, box)
			dy := imageDist(yi-pj[1], half, box)
			dz := imageDist(zi-pj[2], half, box)
			r2 := dx*dx + dy*dy + dz*dz
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			ir2 := 1 / r2
			ir6 := ir2 * ir2 * ir2
			// F = 24 eps (2 (sigma/r)^12 - (sigma/r)^6) / r^2 * d
			fmag := 24 * ir2 * ir6 * (2*ir6 - 1)
			fvx, fvy, fvz := dx*fmag, dy*fmag, dz*fmag
			fx, fy, fz = fx+fvx, fy+fvy, fz+fvz
			fj := &s.Force[j]
			fj[0], fj[1], fj[2] = fj[0]-fvx, fj[1]-fvy, fj[2]-fvz
			pe += 4*(ir6*ir6-ir6) - shift
			virial += dx*fvx + dy*fvy + dz*fvz
		}
		s.Force[i] = Vec3{fx, fy, fz}
	}
	s.pe = pe
	s.virial = virial
	return WorkCount{Ops: float64(ops)}
}

// Pressure returns the instantaneous reduced pressure from the virial
// theorem: P = (N T + W/3) / V with W the pair virial.
func (s *System) Pressure() float64 {
	vol := s.Box * s.Box * s.Box
	if vol <= 0 {
		return 0
	}
	return (float64(s.N)*s.Temperature() + s.virial/3) / vol
}

// KineticEnergy returns the total kinetic energy.
func (s *System) KineticEnergy() float64 {
	var ke float64
	for _, v := range s.Vel {
		ke += 0.5 * v.Norm2()
	}
	return ke
}

// PotentialEnergy returns the potential energy from the last force
// evaluation.
func (s *System) PotentialEnergy() float64 { return s.pe }

// TotalEnergy returns kinetic + potential energy.
func (s *System) TotalEnergy() float64 { return s.KineticEnergy() + s.pe }

// Temperature returns the instantaneous reduced temperature
// (2 KE / (3 N - 3), accounting for the removed center-of-mass momentum).
func (s *System) Temperature() float64 {
	dof := 3*s.N - 3
	if dof <= 0 {
		return 0
	}
	return 2 * s.KineticEnergy() / float64(dof)
}

// TotalMomentum returns the system's net momentum vector.
func (s *System) TotalMomentum() Vec3 {
	var m Vec3
	for _, v := range s.Vel {
		m = m.Add(v)
	}
	return m
}

// Frame is the particle snapshot shipped from simulation to analysis at
// a synchronization (step 2 of the Verlet-Splitanalysis flow).
type Frame struct {
	Step  int
	Box   float64
	Pos   []Vec3 // wrapped positions
	Unwrp []Vec3 // unwrapped positions
	Vel   []Vec3
	Typ   []int
}

// Snapshot captures the current state as an independent Frame.
func (s *System) Snapshot() Frame {
	f := Frame{
		Step:  s.step,
		Box:   s.Box,
		Pos:   append([]Vec3(nil), s.Pos...),
		Unwrp: append([]Vec3(nil), s.Unwrp...),
		Vel:   append([]Vec3(nil), s.Vel...),
		Typ:   append([]int(nil), s.Typ...),
	}
	return f
}

// FrameBytes returns the wire size of a frame (what step 2 sends to the
// analysis partition): positions, velocities and unwrapped positions as
// float64 triples plus a type byte per atom.
func (s *System) FrameBytes() int { return s.N * (3*8*3 + 1) }

// ThermoBytes returns the size of the end-of-step thermodynamic output
// (step 8): a handful of global scalars.
func (s *System) ThermoBytes() int { return 6 * 8 }
