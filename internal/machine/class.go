package machine

import (
	"fmt"
	"sort"

	"seesaw/internal/rapl"
)

// Class bundles everything that distinguishes one device kind from
// another in a heterogeneous cluster: the performance model (idle
// floor, zero-work power, speed factor, power envelope), the RAPL
// domain configuration (min cap, TDP, windows) and an optional noise
// profile. A homogeneous cluster is the degenerate one-class case:
// every node is of DefaultClass. A cluster's class map assigns
// built-in presets to some nodes; the others stay of DefaultClass.
type Class struct {
	// Name identifies the class in class maps and traces.
	Name string
	// Model is the class's performance-model constants.
	Model Model
	// Rapl is the class's power-domain configuration; its MinCap/TDP
	// pair is the per-node clamp range allocators must respect.
	Rapl rapl.Config
	// Noise optionally overrides the run-level noise profile for nodes
	// of this class. The zero NoiseModel defers to the run-level
	// profile; and when the run-level profile itself is zero
	// (deterministic run) class noise is ignored entirely, so
	// determinism stays a whole-run property.
	Noise NoiseModel
}

// DefaultClass is the reference KNL-like node: DefaultModel on the
// paper's Theta RAPL constants. It is the degenerate one-class case —
// a cluster built from it alone is byte-identical to the homogeneous
// path.
func DefaultClass() Class {
	return Class{Name: "cpu", Model: DefaultModel(), Rapl: rapl.Theta()}
}

// DefaultNode builds a node of the default class — the paper's
// reference node, deduplicating the rapl.Theta()/DefaultModel() triple
// that tests and experiments would otherwise each spell out.
func DefaultNode(id int, noise NoiseModel, seed uint64) *Node {
	return DefaultClass().NewNode(id, noise, seed)
}

// DefaultNodeWithSeeds is DefaultNode with split job/run seeds.
func DefaultNodeWithSeeds(id int, noise NoiseModel, jobSeed, runSeed uint64) *Node {
	return DefaultClass().NewNodeWithSeeds(id, noise, jobSeed, runSeed)
}

// presetClasses builds the built-in class registry. gpu and lowpower
// are calibrated relative to the KNL reference: the GPU node is ~2.2x
// faster at saturation but needs a much larger power envelope to get
// there (steep power-response curve — starved at a CPU-sized cap,
// excellent marginal speed per Watt above it), while the low-power
// node is slower, saturates early, and frees budget for others.
func presetClasses() map[string]Class {
	cpu := DefaultClass()
	gpu := Class{
		Name: "gpu",
		Model: Model{
			ZeroWork:          80,
			IdlePower:         130,
			MinPerf:           0.12,
			CapNoiseBoost:     3.0,
			DualCapNoiseBoost: 2.0,
			SpeedFactor:       2.2,
			PowerScale:        1.9,
		},
		Rapl: rapl.Config{
			MinCap:           100,
			TDP:              320,
			LongWindow:       cpu.Rapl.LongWindow,
			ShortWindow:      cpu.Rapl.ShortWindow,
			ActuationLatency: cpu.Rapl.ActuationLatency,
			DualCapMargin:    cpu.Rapl.DualCapMargin,
		},
		// GPUs regulate power more coarsely: larger reading ripple and
		// per-run spread (applies only when the run itself is noisy).
		Noise: NoiseModel{
			SkewSigma:     0.008,
			PowerEffSigma: 0.015,
			JitterSigma:   0.0025,
			PowerSigma:    0.05,
			RunSigma:      0.004,
			DualRunSigma:  0.015,
		},
	}
	lowpower := Class{
		Name: "lowpower",
		Model: Model{
			ZeroWork:          25,
			IdlePower:         35,
			MinPerf:           0.12,
			CapNoiseBoost:     3.0,
			DualCapNoiseBoost: 2.0,
			SpeedFactor:       0.6,
			PowerScale:        0.55,
		},
		Rapl: rapl.Config{
			MinCap:           40,
			TDP:              90,
			LongWindow:       cpu.Rapl.LongWindow,
			ShortWindow:      cpu.Rapl.ShortWindow,
			ActuationLatency: cpu.Rapl.ActuationLatency,
			DualCapMargin:    cpu.Rapl.DualCapMargin,
		},
	}
	return map[string]Class{cpu.Name: cpu, gpu.Name: gpu, lowpower.Name: lowpower}
}

// PresetClass returns the built-in class with the given name.
func PresetClass(name string) (Class, bool) {
	c, ok := presetClasses()[name]
	return c, ok
}

// PresetNames lists the built-in class names, sorted.
func PresetNames() []string {
	ps := presetClasses()
	names := make([]string, 0, len(ps))
	for name := range ps {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewNode builds a node of this class with a single seed (see
// NewNodeWithSeeds for the two-seed form).
func (c Class) NewNode(id int, noise NoiseModel, seed uint64) *Node {
	return c.NewNodeWithSeeds(id, noise, seed, seed)
}

// NewNodeWithSeeds builds a node of this class. noise is the run-level
// profile: the zero NoiseModel keeps the run deterministic regardless
// of class profiles; otherwise a non-zero class profile overrides it.
func (c Class) NewNodeWithSeeds(id int, noise NoiseModel, jobSeed, runSeed uint64) *Node {
	if noise != (NoiseModel{}) && c.Noise != (NoiseModel{}) {
		noise = c.Noise
	}
	return NewNodeWithSeeds(id, c.Rapl, c.Model, noise, jobSeed, runSeed)
}

// weightProbe is the reference compute phase Weight measures against:
// the paper's LAMMPS-like compute profile (saturates near 140 W on the
// reference node; Section VII-D).
func weightProbe() Phase {
	return Phase{Name: "weight-probe", Nominal: 1, Demand: 135, Saturation: 140, Sensitivity: 0.95}
}

// refSpeed is the class's throughput on the reference compute phase at
// its own TDP (unconstrained), measured through the same
// PredictDuration path the simulator executes.
func (c Class) refSpeed() float64 {
	probe := NewNode(0, c.Rapl, c.Model, NoiseModel{}, 1)
	d := probe.PredictDuration(weightProbe(), c.Rapl.TDP)
	if d <= 0 {
		return 0
	}
	return 1 / float64(d)
}

// Weight is the class's capability weight — its unconstrained speed on
// the reference compute phase relative to the default (KNL) class, so
// cpu ≡ 1. Heterogeneity-aware allocators use it as the marginal
// speed-per-Watt signal when splitting a partition's budget across
// mixed nodes.
func (c Class) Weight() float64 {
	ref := DefaultClass().refSpeed()
	if ref == 0 {
		return 1
	}
	w := c.refSpeed() / ref
	if w <= 0 {
		return 1
	}
	return w
}

// Validate reports a descriptive error if the class cannot build a
// working node (rapl domain invalid, model floors inconsistent with
// the adapted reference phase).
func (c Class) Validate() error {
	if _, err := rapl.NewDomain(c.Rapl); err != nil {
		return fmt.Errorf("machine: class %q: %w", c.Name, err)
	}
	if err := c.Model.adapt(weightProbe()).Validate(c.Model); err != nil {
		return fmt.Errorf("machine: class %q: %w", c.Name, err)
	}
	if sf := c.Model.SpeedFactor; sf < 0 {
		return fmt.Errorf("machine: class %q has negative speed factor %g", c.Name, sf)
	}
	if ps := c.Model.PowerScale; ps < 0 {
		return fmt.Errorf("machine: class %q has negative power scale %g", c.Name, ps)
	}
	return nil
}
