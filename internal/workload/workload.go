// Package workload defines the phase-level workload model used by the
// scale co-simulation (package cosim) for the paper's 128-1024-node
// experiments. It parameterizes the per-synchronization work of LAMMPS
// simulation nodes and of each analysis by the paper's experimental
// knobs:
//
//   - dim: the problem size (total atoms = 1568 * dim^3, Section VII),
//     scaling each node's compute work as dim^3 / simNodes;
//   - scale: the node count, scaling communication phases with the
//     log-depth of collectives — at 1024 nodes communication overhead
//     dominates and simulation power utilization drops, the effect
//     driving Section VII-B3;
//   - j: how many Verlet steps run between synchronizations (non-sync
//     steps skip the synchronization, neighbor and analysis phases).
//
// The reference calibration point is dim=16 on 128 nodes (64 simulation
// + 64 analysis), where the per-step phase times match the instrumented
// mini-MD of package insitu (~4 s between synchronizations, Figure 4d)
// and full MSD is nearly identical to simulation in runtime while VACF,
// RDF, MSD1D and MSD2D run 2-4x faster (Section VII-B).
package workload

import (
	"fmt"
	"math"

	"seesaw/internal/machine"
	"seesaw/internal/units"
)

// phaseDef is one workload phase at the reference point.
type phaseDef struct {
	name string
	// t0 is the phase duration at the reference point (dim=16, 64 sim
	// nodes, unconstrained power).
	t0 units.Seconds
	// computeShare is the fraction of the phase that scales with the
	// per-node work (atoms/node); the rest scales with collective
	// latency depth (log2 of the partition size).
	computeShare float64
	// syncOnly phases run only at synchronization steps (steps 2-5 of
	// the Verlet flow).
	syncOnly bool

	demand     units.Watts
	saturation units.Watts
	sens       float64
	// demandScale and satScale are the extra Watts of demand and
	// saturation the phase gains at large per-node working sets: at
	// dim=16 on 128 nodes the simulation draws only ~105 W (the paper's
	// "consumes 102-104 W" when given 120 W), while at dim=36-48 the
	// bigger per-node problem exercises memory and vector units and the
	// same phases pull and use ~120+ W.
	demandScale units.Watts
	satScale    units.Watts
}

// simPhaseDefs is the per-Verlet-step phase table of a LAMMPS simulation
// node, calibrated to the insitu engine's constants.
var simPhaseDefs = []phaseDef{
	{name: "integrate", t0: 0.20, computeShare: 1.00, demand: 106, saturation: 118, sens: 0.90, demandScale: 16, satScale: 16},
	{name: "sync", t0: 0.25, computeShare: 0.30, syncOnly: true, demand: 105, saturation: 112, sens: 0.10},
	{name: "rebuild", t0: 0.30, computeShare: 0.70, syncOnly: true, demand: 107, saturation: 114, sens: 0.35, demandScale: 6, satScale: 6},
	{name: "neighbor", t0: 0.90, computeShare: 0.45, syncOnly: true, demand: 108, saturation: 118, sens: 0.45, demandScale: 10, satScale: 10},
	{name: "force", t0: 1.30, computeShare: 1.00, demand: 108, saturation: 120, sens: 0.95, demandScale: 20, satScale: 20},
	{name: "output", t0: 1.15, computeShare: 0.20, demand: 105, saturation: 110, sens: 0.10},
}

// anaDef is one analysis's reference duration and resource profile.
type anaDef struct {
	t0           units.Seconds
	computeShare float64
	demand       units.Watts
	saturation   units.Watts
	sens         float64
}

// anaDefs calibrates the analyses at the reference point: MSD comparable
// to the simulation step, the others 2-4x faster, with the resource
// characters of Section VI-C.
var anaDefs = map[string]anaDef{
	"msd":   {t0: 3.35, computeShare: 0.80, demand: 175, saturation: 150, sens: 0.30},
	"rdf":   {t0: 1.03, computeShare: 0.55, demand: 165, saturation: 140, sens: 0.85},
	"vacf":  {t0: 0.82, computeShare: 0.60, demand: 135, saturation: 120, sens: 0.70},
	"msd1d": {t0: 0.77, computeShare: 0.60, demand: 135, saturation: 120, sens: 0.70},
	"msd2d": {t0: 1.15, computeShare: 0.50, demand: 150, saturation: 125, sens: 0.60},
}

// anaHousekeepingDefs are the analysis partition's per-synchronization
// rebuild/neighbor phases (steps 3 and 5 on the analysis side).
var anaHousekeepingDefs = []phaseDef{
	{name: "ana-rebuild", t0: 0.20, computeShare: 0.60, demand: 125, saturation: 118, sens: 0.35},
	{name: "ana-neighbor", t0: 0.08, computeShare: 0.60, demand: 120, saturation: 115, sens: 0.30},
}

// Reference calibration constants.
const (
	refDim      = 16
	refSimNodes = 64
)

// AnalysisTask names an analysis and the interval (in Verlet steps) at
// which it synchronizes with the simulation.
type AnalysisTask struct {
	// Name is one of the names in package analysis.
	Name string
	// Interval is the analysis's j; 0 means the job-wide default.
	Interval int
}

// Spec describes one co-simulated job's workload.
type Spec struct {
	// SimNodes and AnaNodes are the partition sizes.
	SimNodes, AnaNodes int
	// Dim is the LAMMPS problem-size knob (total atoms 1568*dim^3).
	Dim int
	// J is the default synchronization interval in Verlet steps.
	J int
	// Steps is the total number of Verlet steps (the paper runs 400).
	Steps int
	// Analyses lists the analyses (with optional per-analysis
	// intervals, Table II).
	Analyses []AnalysisTask
	// NoSetupTransient disables the simulation's startup overhead. By
	// default the first synchronization intervals carry extra
	// simulation setup time ("In the first couple steps the simulation
	// has extra setup overhead, which is consistent in repeated runs
	// with MSD", Section VII-B1) — the transient that lures the
	// time-aware policy into over-powering the simulation.
	NoSetupTransient bool
}

// setupFactors is the extra simulation time (as a fraction of a step) in
// the first synchronization intervals.
var setupFactors = []float64{0.60, 0.25}

// Validate reports specification errors.
func (s Spec) Validate() error {
	if s.SimNodes <= 0 || s.AnaNodes <= 0 {
		return fmt.Errorf("workload: need positive node counts, got sim=%d ana=%d", s.SimNodes, s.AnaNodes)
	}
	if s.Dim <= 0 {
		return fmt.Errorf("workload: dim must be positive, got %d", s.Dim)
	}
	if s.Steps <= 0 {
		return fmt.Errorf("workload: steps must be positive, got %d", s.Steps)
	}
	if len(s.Analyses) == 0 {
		return fmt.Errorf("workload: at least one analysis required")
	}
	for _, a := range s.Analyses {
		if _, ok := anaDefs[a.Name]; !ok {
			return fmt.Errorf("workload: unknown analysis %q", a.Name)
		}
	}
	return nil
}

// j returns the default interval (>= 1).
func (s Spec) j() int {
	if s.J < 1 {
		return 1
	}
	return s.J
}

// intervalOf returns the effective interval of one analysis task.
func (s Spec) intervalOf(a AnalysisTask) int {
	if a.Interval > 0 {
		return a.Interval
	}
	return s.j()
}

// workFactor is the per-node compute scaling relative to the reference
// point: atoms per node grow as dim^3 and shrink with the partition
// size.
func (s Spec) workFactor() float64 {
	d := float64(s.Dim) / refDim
	return d * d * d * (refSimNodes / float64(s.SimNodes))
}

// latencyFactor is the collective-depth scaling of communication phases
// relative to the reference point.
func (s Spec) latencyFactor() float64 {
	return math.Log2(float64(2*s.SimNodes)) / math.Log2(2*refSimNodes)
}

// scaleDemand grows a phase's power demand with the per-node working
// set: full demandScale is reached asymptotically as dim^3/nodes grows.
func (s Spec) scaleDemand(base, extra units.Watts) units.Watts {
	if extra == 0 {
		return base
	}
	w := s.workFactor()
	if w <= 1 {
		return base
	}
	f := 1 - math.Pow(w, -1.0/3.0)
	return base + units.Watts(float64(extra)*f)
}

// scalePhase converts a phase definition to its duration for this spec.
func (s Spec) scalePhase(d phaseDef) units.Seconds {
	w := s.workFactor()
	l := s.latencyFactor()
	return units.Seconds(float64(d.t0) * (d.computeShare*w + (1-d.computeShare)*l))
}

// scaleSens dilutes a phase's power sensitivity by how much of its time
// is communication at this scale: the latency part of a phase gains
// nothing from power, so as communication grows relative to compute
// (strong scaling, larger machines) the phase's effective sensitivity
// drops — the "utilization limits due to communication overhead" of
// Section VII-B3. Normalized so the reference point keeps its calibrated
// sensitivity.
func (s Spec) scaleSens(d phaseDef) float64 {
	if d.computeShare >= 1 {
		return d.sens
	}
	w := s.workFactor()
	l := s.latencyFactor()
	total := d.computeShare*w + (1-d.computeShare)*l
	if total <= 0 {
		return d.sens
	}
	eff := d.sens * w / total
	if eff > 1 {
		eff = 1
	}
	return eff
}

// SyncSchedule returns the Verlet steps (1-based) at which the
// simulation and analysis partitions synchronize: the union of all
// analyses' intervals.
func (s Spec) SyncSchedule() []int {
	var steps []int
	for step := 1; step <= s.Steps; step++ {
		for _, a := range s.Analyses {
			if step%s.intervalOf(a) == 0 {
				steps = append(steps, step)
				break
			}
		}
	}
	return steps
}

// SimIntervalIdx returns the simulation phases making up the interval
// that ends at syncStep, covering the Verlet steps since prevStep
// (exclusive). Non-synchronizing steps contribute only their
// integrate/force/output phases. intervalIdx counts synchronization
// intervals from 0 and selects the startup transient.
func (s Spec) SimIntervalIdx(prevStep, syncStep, intervalIdx int) []machine.Phase {
	var phases []machine.Phase
	nSteps := syncStep - prevStep
	if nSteps <= 0 {
		return nil
	}
	if !s.NoSetupTransient && intervalIdx < len(setupFactors) {
		// Startup overhead: allocation, file I/O, first-touch costs —
		// low power demand, insensitive to the cap.
		stepT := s.scalePhase(phaseDef{t0: 4.1, computeShare: 0.8})
		phases = append(phases, machine.Phase{
			Name:        "setup",
			Nominal:     units.Seconds(float64(stepT) * setupFactors[intervalIdx]),
			Demand:      108,
			Saturation:  112,
			Sensitivity: 0.20,
		})
	}
	for _, d := range simPhaseDefs {
		count := nSteps
		if d.syncOnly {
			count = 1 // only the synchronizing step runs these
		}
		phases = append(phases, machine.Phase{
			Name:        d.name,
			Nominal:     s.scalePhase(d) * units.Seconds(count),
			Demand:      s.scaleDemand(d.demand, d.demandScale),
			Saturation:  s.scaleDemand(d.saturation, d.satScale),
			Sensitivity: s.scaleSens(d),
		})
	}
	return phases
}

// AnaInterval returns the analysis phases due at syncStep: the
// housekeeping phases plus every analysis whose interval divides the
// step.
func (s Spec) AnaInterval(syncStep int) []machine.Phase {
	var phases []machine.Phase
	for _, d := range anaHousekeepingDefs {
		phases = append(phases, machine.Phase{
			Name:        d.name,
			Nominal:     s.scalePhase(d),
			Demand:      d.demand,
			Saturation:  d.saturation,
			Sensitivity: s.scaleSens(d),
		})
	}
	for _, a := range s.Analyses {
		if syncStep%s.intervalOf(a) != 0 {
			continue
		}
		d := anaDefs[a.Name]
		pd := phaseDef{t0: d.t0, computeShare: d.computeShare, sens: d.sens}
		phases = append(phases, machine.Phase{
			Name:        a.Name,
			Nominal:     s.scalePhase(pd),
			Demand:      d.demand,
			Saturation:  d.saturation,
			Sensitivity: s.scaleSens(pd),
		})
	}
	return phases
}

// Tasks converts plain analysis names into AnalysisTasks with the
// default interval.
func Tasks(names ...string) []AnalysisTask {
	ts := make([]AnalysisTask, len(names))
	for i, n := range names {
		ts[i] = AnalysisTask{Name: n}
	}
	return ts
}

// AllAnalyses returns the paper's "all" workload: RDF, MSD1D, MSD2D,
// full MSD averaging, and VACF executed in sequence at each
// synchronization.
func AllAnalyses() []AnalysisTask {
	return Tasks("rdf", "msd1d", "msd2d", "msd", "vacf")
}

// AllAnalysesForDim returns the "all" workload valid at the given
// problem size: full MSD's memory needs limit it to dim <= 16
// (Section VII-B), so larger problems run the remaining analyses.
func AllAnalysesForDim(dim int) []AnalysisTask {
	if dim <= 16 {
		return AllAnalyses()
	}
	return Tasks("rdf", "msd1d", "msd2d", "vacf")
}
