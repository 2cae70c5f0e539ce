// Package analysis implements the in-situ analyses the paper runs
// alongside LAMMPS (Section VI-C): radial distribution functions for the
// two ion species (RDF), the velocity auto-correlation function (VACF),
// and mean squared displacements — full (MSD), in 1D spatial bins (MSD1D)
// and in 2D spatial bins (MSD2D).
//
// Every analysis consumes particle frames produced by the simulation
// partition and returns the computational work the frame induced; the
// machine model turns that work into virtual time and power. Each
// analysis also carries a resource Profile mirroring the paper's
// characterization: "MSD has high CPU and memory utilization, MSD2D is
// mostly memory-intensive (less than MSD), RDF is compute bound but with
// higher memory needs than VACF and MSD1D, both having low memory and
// CPU utilization."
package analysis

import (
	"fmt"
	"math"

	"seesaw/internal/lammps"
	"seesaw/internal/units"
)

// Profile characterizes an analysis's resource behaviour for the machine
// model.
type Profile struct {
	// Demand is the per-node power demand while the analysis runs.
	Demand units.Watts
	// Saturation is the power beyond which the analysis gains nothing.
	Saturation units.Watts
	// Sensitivity is the power-scalable fraction of its runtime.
	Sensitivity float64
	// SecondsPerOp converts the analysis's operation count to nominal
	// runtime, calibrated so relative analysis/simulation durations
	// match the paper's observations (MSD comparable to simulation;
	// VACF, RDF, MSD1D, MSD2D 2-4x faster).
	SecondsPerOp float64
}

// Analysis is one in-situ analysis task.
type Analysis interface {
	// Name returns the analysis identifier ("rdf", "vacf", ...).
	Name() string
	// Consume folds one simulation frame into the analysis state and
	// returns the work it performed.
	Consume(f *lammps.Frame) lammps.WorkCount
	// Result returns the analysis's current output vector.
	Result() []float64
	// Profile returns the resource characterization.
	Profile() Profile
}

// New constructs an analysis by name: "rdf", "vacf", "msd", "msd1d",
// "msd2d".
func New(name string) (Analysis, error) {
	switch name {
	case "rdf":
		return NewRDF(64, 0), nil
	case "vacf":
		return NewVACF(64), nil
	case "msd":
		return NewMSD(), nil
	case "msd1d":
		return NewMSD1D(8), nil
	case "msd2d":
		return NewMSD2D(8), nil
	default:
		return nil, fmt.Errorf("analysis: unknown analysis %q", name)
	}
}

// Names lists all supported analysis names.
func Names() []string { return []string{"rdf", "vacf", "msd", "msd1d", "msd2d"} }

// RDF computes radial distribution functions g(r) between each ion
// species (hydronium and counter-ion) and the solvent, averaged over all
// molecules and frames.
type RDF struct {
	bins   int
	rmax   float64 // 0 = half the box (set on first frame)
	hist   [2][]float64
	frames int
	nIon   [2]int
	nSolv  int
	box    float64
}

// NewRDF returns an RDF with the given number of radial bins. rmax = 0
// defers the range to half the box of the first frame.
func NewRDF(bins int, rmax float64) *RDF {
	if bins <= 0 {
		panic("analysis: rdf bins must be positive")
	}
	r := &RDF{bins: bins, rmax: rmax}
	r.hist[0] = make([]float64, bins)
	r.hist[1] = make([]float64, bins)
	return r
}

// Name implements Analysis.
func (r *RDF) Name() string { return "rdf" }

// Profile implements Analysis: compute bound with higher memory needs
// than VACF/MSD1D.
func (r *RDF) Profile() Profile {
	return Profile{Demand: 165, Saturation: 140, Sensitivity: 0.85, SecondsPerOp: 4.46e-5}
}

// Consume implements Analysis.
func (r *RDF) Consume(f *lammps.Frame) lammps.WorkCount {
	if r.rmax == 0 {
		r.rmax = f.Box / 2
	}
	r.box = f.Box
	dr := r.rmax / float64(r.bins)
	var ops float64
	half := f.Box / 2
	r.nIon = [2]int{}
	r.nSolv = 0
	for _, t := range f.Typ {
		switch t {
		case lammps.SpeciesHydronium:
			r.nIon[0]++
		case lammps.SpeciesIon:
			r.nIon[1]++
		default:
			r.nSolv++
		}
	}
	for i, ti := range f.Typ {
		var h []float64
		switch ti {
		case lammps.SpeciesHydronium:
			h = r.hist[0]
		case lammps.SpeciesIon:
			h = r.hist[1]
		default:
			continue
		}
		pi := f.Pos[i]
		for j, tj := range f.Typ {
			if tj != lammps.SpeciesSolvent {
				continue
			}
			ops++
			d := pi.Sub(f.Pos[j])
			for k := 0; k < 3; k++ {
				if d[k] > half {
					d[k] -= f.Box
				} else if d[k] < -half {
					d[k] += f.Box
				}
			}
			dist := math.Sqrt(d.Norm2())
			if dist < r.rmax {
				h[int(dist/dr)]++
			}
		}
	}
	r.frames++
	return lammps.WorkCount{Ops: ops, Bytes: r.bins * 16}
}

// Result implements Analysis: the hydronium-solvent g(r) followed by the
// ion-solvent g(r), ideal-gas normalized.
func (r *RDF) Result() []float64 {
	out := make([]float64, 0, 2*r.bins)
	if r.frames == 0 || r.box == 0 {
		return make([]float64, 2*r.bins)
	}
	dr := r.rmax / float64(r.bins)
	vol := r.box * r.box * r.box
	rhoSolv := float64(r.nSolv) / vol
	for s := 0; s < 2; s++ {
		n := float64(r.nIon[s])
		for b := 0; b < r.bins; b++ {
			rin := float64(b) * dr
			rout := rin + dr
			shell := 4.0 / 3.0 * math.Pi * (rout*rout*rout - rin*rin*rin)
			ideal := rhoSolv * shell * n * float64(r.frames)
			if ideal > 0 {
				out = append(out, r.hist[s][b]/ideal)
			} else {
				out = append(out, 0)
			}
		}
	}
	return out
}

// VACF computes the velocity auto-correlation function
// C(t) = <v(0) . v(t)> / <v(0) . v(0)>, averaged over all particles,
// using the first consumed frame as the time origin.
type VACF struct {
	maxLag int
	v0     []lammps.Vec3
	c      []float64
	count  []int
	lag    int
}

// NewVACF returns a VACF retaining up to maxLag correlation points.
func NewVACF(maxLag int) *VACF {
	if maxLag <= 0 {
		panic("analysis: vacf maxLag must be positive")
	}
	return &VACF{maxLag: maxLag, c: make([]float64, maxLag), count: make([]int, maxLag)}
}

// Name implements Analysis.
func (v *VACF) Name() string { return "vacf" }

// Profile implements Analysis: low memory and CPU utilization.
func (v *VACF) Profile() Profile {
	return Profile{Demand: 135, Saturation: 120, Sensitivity: 0.70, SecondsPerOp: 5.3e-4}
}

// Consume implements Analysis.
func (v *VACF) Consume(f *lammps.Frame) lammps.WorkCount {
	if v.v0 == nil {
		v.v0 = append([]lammps.Vec3(nil), f.Vel...)
	}
	if v.lag < v.maxLag {
		var sum float64
		for i, vel := range f.Vel {
			sum += v.v0[i].Dot(vel)
		}
		v.c[v.lag] += sum / float64(len(f.Vel))
		v.count[v.lag]++
		v.lag++
	}
	return lammps.WorkCount{Ops: float64(len(f.Vel)) * 3, Bytes: 8 * v.maxLag}
}

// Result implements Analysis: C(t)/C(0) over recorded lags.
func (v *VACF) Result() []float64 {
	out := make([]float64, v.lag)
	if v.lag == 0 {
		return out
	}
	c0 := v.c[0] / float64(max(v.count[0], 1))
	for i := 0; i < v.lag; i++ {
		c := v.c[i] / float64(max(v.count[i], 1))
		if c0 != 0 {
			out[i] = c / c0
		}
	}
	return out
}

// MSD computes the full mean squared displacement from unwrapped
// coordinates, with the paper's "final averaging of all particles". It is
// the high-demand analysis.
type MSD struct {
	u0   []lammps.Vec3
	msd  []float64
	last float64
}

// NewMSD returns an MSD analysis.
func NewMSD() *MSD { return &MSD{} }

// Name implements Analysis.
func (m *MSD) Name() string { return "msd" }

// Profile implements Analysis: high CPU and memory utilization; its
// per-op cost is calibrated so the full-MSD runtime is comparable to the
// simulation's between synchronizations (paper Section VII-B1).
func (m *MSD) Profile() Profile {
	return Profile{Demand: 175, Saturation: 150, Sensitivity: 0.30, SecondsPerOp: 4.1e-4}
}

// Consume implements Analysis.
func (m *MSD) Consume(f *lammps.Frame) lammps.WorkCount {
	if m.u0 == nil {
		m.u0 = append([]lammps.Vec3(nil), f.Unwrp...)
	}
	var sum float64
	for i, u := range f.Unwrp {
		sum += u.Sub(m.u0[i]).Norm2()
	}
	m.last = sum / float64(len(f.Unwrp))
	m.msd = append(m.msd, m.last)
	// Full MSD does several passes over the particle arrays (1D and 2D
	// components plus the final all-particle average), reflected in a
	// higher per-atom operation count.
	n := float64(len(f.Unwrp))
	return lammps.WorkCount{Ops: n * 16, Bytes: len(f.Unwrp) * 48}
}

// Result implements Analysis: MSD(t) per consumed frame.
func (m *MSD) Result() []float64 { return append([]float64(nil), m.msd...) }

// MSD1D computes mean squared displacement in 1D spatial bins along x,
// a light-weight variant.
type MSD1D struct {
	bins int
	u0   []lammps.Vec3
	box  float64
	out  []float64
}

// NewMSD1D returns an MSD1D with the given bin count along x.
func NewMSD1D(bins int) *MSD1D {
	if bins <= 0 {
		panic("analysis: msd1d bins must be positive")
	}
	return &MSD1D{bins: bins}
}

// Name implements Analysis.
func (m *MSD1D) Name() string { return "msd1d" }

// Profile implements Analysis: low memory and CPU utilization.
func (m *MSD1D) Profile() Profile {
	return Profile{Demand: 135, Saturation: 120, Sensitivity: 0.70, SecondsPerOp: 3.76e-4}
}

// Consume implements Analysis.
func (m *MSD1D) Consume(f *lammps.Frame) lammps.WorkCount {
	if m.u0 == nil {
		m.u0 = append([]lammps.Vec3(nil), f.Unwrp...)
		m.box = f.Box
	}
	sums := make([]float64, m.bins)
	counts := make([]float64, m.bins)
	for i, u := range f.Unwrp {
		b := binIndex(f.Pos[i][0], m.box, m.bins)
		dx := u[0] - m.u0[i][0]
		sums[b] += dx * dx
		counts[b]++
	}
	m.out = make([]float64, m.bins)
	for b := range sums {
		if counts[b] > 0 {
			m.out[b] = sums[b] / counts[b]
		}
	}
	return lammps.WorkCount{Ops: float64(len(f.Unwrp)) * 4, Bytes: m.bins * 8}
}

// Result implements Analysis: per-bin 1D MSD.
func (m *MSD1D) Result() []float64 { return append([]float64(nil), m.out...) }

// MSD2D computes mean squared displacement in 2D spatial bins over the
// x-y plane: mostly memory-intensive.
type MSD2D struct {
	bins int
	u0   []lammps.Vec3
	box  float64
	out  []float64
}

// NewMSD2D returns an MSD2D with bins x bins cells over the x-y plane.
func NewMSD2D(bins int) *MSD2D {
	if bins <= 0 {
		panic("analysis: msd2d bins must be positive")
	}
	return &MSD2D{bins: bins}
}

// Name implements Analysis.
func (m *MSD2D) Name() string { return "msd2d" }

// Profile implements Analysis: memory-intensive (less than full MSD), so
// it saturates at lower power and has a lower scalable fraction.
func (m *MSD2D) Profile() Profile {
	return Profile{Demand: 150, Saturation: 125, Sensitivity: 0.60, SecondsPerOp: 3.2e-4}
}

// Consume implements Analysis.
func (m *MSD2D) Consume(f *lammps.Frame) lammps.WorkCount {
	if m.u0 == nil {
		m.u0 = append([]lammps.Vec3(nil), f.Unwrp...)
		m.box = f.Box
	}
	n := m.bins * m.bins
	sums := make([]float64, n)
	counts := make([]float64, n)
	for i, u := range f.Unwrp {
		bx := binIndex(f.Pos[i][0], m.box, m.bins)
		by := binIndex(f.Pos[i][1], m.box, m.bins)
		d := u.Sub(m.u0[i])
		sums[bx*m.bins+by] += d[0]*d[0] + d[1]*d[1]
		counts[bx*m.bins+by]++
	}
	m.out = make([]float64, n)
	for b := range sums {
		if counts[b] > 0 {
			m.out[b] = sums[b] / counts[b]
		}
	}
	return lammps.WorkCount{Ops: float64(len(f.Unwrp)) * 7, Bytes: n * 16}
}

// Result implements Analysis: row-major per-cell 2D MSD.
func (m *MSD2D) Result() []float64 { return append([]float64(nil), m.out...) }

// binIndex maps coordinate x in a box of side box onto one of bins bins.
func binIndex(x, box float64, bins int) int {
	if box <= 0 {
		return 0
	}
	b := int(x / box * float64(bins))
	if b < 0 {
		b = 0
	}
	if b >= bins {
		b = bins - 1
	}
	return b
}
