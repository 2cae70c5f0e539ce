// Exploring SeeSAw: the paper's second future-work item ("Methods to
// overcome local optima could be explored for more performance gains
// with low-demand analyses", Section VIII).
package core

import (
	"fmt"

	"seesaw/internal/rng"
	"seesaw/internal/units"
)

// ExploringConfig parameterizes the local-optima escape on top of a
// standard SeeSAw configuration.
type ExploringConfig struct {
	// Constraints and Window configure the inner SeeSAw.
	Constraints Constraints
	Window      int
	// Period is how many allocations pass between exploration probes.
	Period int
	// Probe is the per-node power perturbation applied to the live
	// simulation nodes during a probe; the live analysis nodes give up
	// the same total, spread evenly over them.
	Probe units.Watts
	// Seed drives the probe-direction draws deterministically.
	Seed uint64
}

// DefaultExploringConfig returns a gentle exploration schedule.
func DefaultExploringConfig(c Constraints) ExploringConfig {
	return ExploringConfig{Constraints: c, Window: 1, Period: 25, Probe: 4, Seed: 1}
}

// ExploringSeeSAw wraps SeeSAw with periodic exploration probes: every
// Period allocations it perturbs the converged split by +-Probe Watts
// per node for one interval and keeps the perturbed split if the
// following interval was faster. SeeSAw's energy-share fixed point can
// sit below the best achievable allocation when the losing partition's
// power draw saturates (the local optimum the paper observes on RDF and
// VACF); a direct experiment on the real objective — interval time —
// escapes it.
type ExploringSeeSAw struct {
	cfg    ExploringConfig
	seesaw *SeeSAw
	r      *rng.Stream

	allocs int

	// probe state machine.
	probing    bool
	probeDelta units.Watts // per-node delta applied to the sim partition
	preTime    units.Seconds
	preCaps    []units.Watts
	lockedCaps []units.Watts // non-nil while a won probe's caps are held
	holdLeft   int
}

// NewExploringSeeSAw builds the exploring variant.
func NewExploringSeeSAw(cfg ExploringConfig) (*ExploringSeeSAw, error) {
	if cfg.Period < 2 {
		return nil, fmt.Errorf("core: exploration period must be >= 2, got %d", cfg.Period)
	}
	if cfg.Probe <= 0 {
		return nil, fmt.Errorf("core: probe magnitude must be positive, got %v", cfg.Probe)
	}
	ss, err := NewSeeSAw(SeeSAwConfig{Constraints: cfg.Constraints, Window: cfg.Window})
	if err != nil {
		return nil, err
	}
	return &ExploringSeeSAw{cfg: cfg, seesaw: ss, r: rng.New(cfg.Seed)}, nil
}

// MustNewExploringSeeSAw panics on configuration errors.
func MustNewExploringSeeSAw(cfg ExploringConfig) *ExploringSeeSAw {
	e, err := NewExploringSeeSAw(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Name implements Policy.
func (*ExploringSeeSAw) Name() string { return "seesaw-explore" }

// Allocate implements Policy.
func (e *ExploringSeeSAw) Allocate(step int, nodes []NodeMeasure) []units.Watts {
	interval := wallOf(nodes)

	if e.probing {
		// The probe interval just completed: keep the perturbed caps if
		// it was faster, otherwise restore the pre-probe allocation.
		e.probing = false
		if interval > 0 && e.preTime > 0 && interval < e.preTime {
			e.lockedCaps = e.lastAppliedCaps(nodes)
			e.holdLeft = e.cfg.Period / 2
			return nil // keep the probe caps in force
		}
		restored := e.preCaps
		e.preCaps = nil
		return restored
	}

	if e.holdLeft > 0 {
		// Holding a won probe: keep the inner SeeSAw's windows fed but
		// pin the caps.
		e.holdLeft--
		e.seesaw.Allocate(step, nodes)
		return nil
	}

	caps := e.seesaw.Allocate(step, nodes)
	if caps != nil {
		e.allocs++
	}
	if e.allocs > 0 && e.allocs%e.cfg.Period == 0 && caps != nil {
		// Launch a probe: perturb the fresh allocation by +-Probe.
		delta := e.cfg.Probe
		if e.r.Float64() < 0.5 {
			delta = -delta
		}
		e.probing = true
		e.probeDelta = delta
		e.preTime = interval
		e.preCaps = append([]units.Watts(nil), caps...)
		// Each live analysis node gives up its share of what the live
		// simulation nodes gain, so an unclamped probe keeps the caps'
		// sum; with equal live partitions the share is exactly delta.
		_, _, _, _, liveSim, liveAna := partitionTotals(nodes)
		anaDelta := -delta * units.Watts(float64(liveSim)/float64(liveAna))
		probe := make([]units.Watts, len(caps))
		for i, n := range nodes {
			if n.Health == Dead {
				continue // dead nodes keep a zero cap
			}
			d := delta
			if n.Role == RoleAnalysis {
				d = anaDelta
			}
			lo, hi := n.CapRange(e.cfg.Constraints)
			probe[i] = units.ClampWatts(caps[i]+d, lo, hi)
		}
		return probe
	}
	return caps
}

// lastAppliedCaps reconstructs the caps currently in force from the
// measurements (each node reports its cap).
func (e *ExploringSeeSAw) lastAppliedCaps(nodes []NodeMeasure) []units.Watts {
	caps := make([]units.Watts, len(nodes))
	for i, n := range nodes {
		caps[i] = n.Cap
	}
	return caps
}

// wallOf returns the slowest node interval — the objective the probes
// compare.
func wallOf(nodes []NodeMeasure) units.Seconds {
	var w units.Seconds
	for _, n := range nodes {
		if n.Time > w {
			w = n.Time
		}
	}
	return w
}
