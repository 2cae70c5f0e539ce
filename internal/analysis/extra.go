// An analysis beyond the paper's five: a velocity-distribution
// histogram, whose Maxwell-Boltzmann shape doubles as a physics check on
// the MD engine.
package analysis

import (
	"math"

	"seesaw/internal/lammps"
)

// VelocityHistogram accumulates the distribution of particle speeds; in
// equilibrium it follows the Maxwell-Boltzmann distribution at the
// system temperature.
type VelocityHistogram struct {
	bins  int
	vmax  float64
	hist  []float64
	total float64
}

// NewVelocityHistogram returns a histogram with the given bins covering
// speeds [0, vmax).
func NewVelocityHistogram(bins int, vmax float64) *VelocityHistogram {
	if bins <= 0 || vmax <= 0 {
		panic("analysis: velocity histogram needs positive bins and vmax")
	}
	return &VelocityHistogram{bins: bins, vmax: vmax, hist: make([]float64, bins)}
}

// Name implements Analysis.
func (*VelocityHistogram) Name() string { return "vhist" }

// Profile implements Analysis: a single pass over velocities, light.
func (*VelocityHistogram) Profile() Profile {
	return Profile{Demand: 130, Saturation: 118, Sensitivity: 0.65, SecondsPerOp: 3.0e-4}
}

// Consume implements Analysis.
func (v *VelocityHistogram) Consume(f *lammps.Frame) lammps.WorkCount {
	dv := v.vmax / float64(v.bins)
	for _, vel := range f.Vel {
		speed := math.Sqrt(vel.Norm2())
		b := int(speed / dv)
		if b >= 0 && b < v.bins {
			v.hist[b]++
		}
		v.total++
	}
	return lammps.WorkCount{Ops: float64(len(f.Vel)) * 2, Bytes: v.bins * 8}
}

// Result implements Analysis: the normalized probability density over
// the speed bins (sums to ~1/dv-weighted mass actually binned).
func (v *VelocityHistogram) Result() []float64 {
	out := make([]float64, v.bins)
	if v.total == 0 {
		return out
	}
	dv := v.vmax / float64(v.bins)
	for i, h := range v.hist {
		out[i] = h / (v.total * dv)
	}
	return out
}

// MaxwellBoltzmannPDF returns the theoretical speed distribution at
// reduced temperature T (unit mass): 4 pi v^2 (1/(2 pi T))^{3/2}
// exp(-v^2/(2T)). Exposed for tests and examples validating the MD
// engine's equilibrium.
func MaxwellBoltzmannPDF(v, temp float64) float64 {
	if temp <= 0 || v < 0 {
		return 0
	}
	a := math.Pow(1/(2*math.Pi*temp), 1.5)
	return 4 * math.Pi * v * v * a * math.Exp(-v*v/(2*temp))
}
