// The strictly power-aware policy: SLURM's power-management scheme as
// described in Section II of the paper.
package core

import (
	"fmt"

	"seesaw/internal/units"
)

// PowerAwareConfig parameterizes the SLURM-style allocator.
type PowerAwareConfig struct {
	// Constraints carry the budget and hardware cap range.
	Constraints Constraints
	// AtCapMargin is how close (in Watts) a node's measured power must
	// be to its cap to count as "at the power cap" and therefore
	// needing more power.
	AtCapMargin units.Watts
	// Headroom is the cushion left above a donor node's measured power
	// when trimming its cap, so ordinary fluctuation doesn't
	// immediately throttle it.
	Headroom units.Watts
	// Window is w: how many synchronizations between reallocations.
	// The paper applies its w window to the power-aware implementation
	// too (Section VI-B).
	Window int
}

// DefaultPowerAwareConfig returns the margins used in the evaluation.
func DefaultPowerAwareConfig(c Constraints) PowerAwareConfig {
	return PowerAwareConfig{Constraints: c, AtCapMargin: 1, Headroom: 1, Window: 1}
}

// PowerAware reimplements SLURM's strictly power-aware redistribution:
// nodes whose measured power is at their cap are starved; nodes below
// their cap have excess. Excess power (cap minus measured, less a
// headroom cushion) is reclaimed from the under-cap nodes and divided
// among the starved ones by capability weight (evenly on a single-class
// cluster). The policy looks only at power — it has no notion of
// whether a watt moved actually buys performance, which is precisely
// the blindness the paper demonstrates (Section VII-B1: slack
// fluctuates between 0.2% and 40% under this policy).
//
// Per Section VI-B, the in-situ implementation invokes it at
// synchronization points (rather than SLURM's fixed wall-clock interval)
// to give it its best case, and the w window applies.
type PowerAware struct {
	cfg        PowerAwareConfig
	sinceAlloc int

	// caps backs the returned caps slice (Policy ownership contract:
	// valid until the next Allocate); needy is per-call scratch.
	caps  []units.Watts
	needy []int
}

// NewPowerAware returns a power-aware allocator.
func NewPowerAware(cfg PowerAwareConfig) (*PowerAware, error) {
	if cfg.Window < 1 {
		return nil, fmt.Errorf("core: power-aware window must be >= 1, got %d", cfg.Window)
	}
	if err := cfg.Constraints.Validate(0); err != nil {
		return nil, err
	}
	return &PowerAware{cfg: cfg}, nil
}

// MustNewPowerAware is NewPowerAware that panics on config errors.
func MustNewPowerAware(cfg PowerAwareConfig) *PowerAware {
	p, err := NewPowerAware(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements Policy.
func (*PowerAware) Name() string { return "power-aware" }

// Allocate implements Policy.
func (p *PowerAware) Allocate(step int, nodes []NodeMeasure) []units.Watts {
	p.sinceAlloc++
	if p.sinceAlloc < p.cfg.Window {
		return nil
	}
	p.sinceAlloc = 0

	c := p.cfg.Constraints
	if cap(p.caps) < len(nodes) {
		p.caps = make([]units.Watts, len(nodes))
		p.needy = make([]int, 0, len(nodes))
	}
	caps := p.caps[:len(nodes)]
	needy := p.needy[:0]
	alive := 0
	for i := range nodes {
		n := &nodes[i]
		if n.Health == Dead {
			// Dead nodes hold no cap; their budget share returns to
			// the survivors in the re-anchor pass below.
			caps[i] = 0
			continue
		}
		alive++
		caps[i] = n.Cap
		if n.Power >= n.Cap-p.cfg.AtCapMargin {
			// At the cap: the node "requires more power".
			needy = append(needy, i)
		}
	}
	// "The power-aware algorithm takes action only if nodes are at the
	// power cap, otherwise it assumes the application has available
	// power" (Section VII-A). With dead nodes present it still acts,
	// to hand their share back.
	if alive == 0 || (len(needy) == 0 && alive == len(nodes)) {
		return nil
	}

	var pool units.Watts
	for i := range nodes {
		n := &nodes[i]
		if n.Health == Dead || n.Power >= n.Cap-p.cfg.AtCapMargin {
			continue
		}
		// Below the cap: reclaim the excess beyond a headroom cushion,
		// but never trim below the node's delta_min (its own class
		// floor on a heterogeneous cluster).
		nLo, nHi := n.CapRange(c)
		target := units.ClampWatts(n.Power+p.cfg.Headroom, nLo, nHi)
		if target < caps[i] {
			pool += caps[i] - target
			caps[i] = target
		}
	}
	// Dynamic membership: any budget not covered by the live caps
	// (a dead node's former share) joins the pool.
	pool = addOrphans(nodes, caps, pool, c)

	// "The excess power is divided evenly among nodes that require more
	// power": evenly by capability, so a starved GPU gets a larger slice
	// than a starved low-power node, each bounded by its own ceiling.
	if len(needy) > 0 && pool > 0 {
		var wsum float64
		for _, i := range needy {
			wsum += weightOf(&nodes[i])
		}
		pool0 := pool
		for _, i := range needy {
			grant := units.Watts(float64(pool0) * weightOf(&nodes[i]) / wsum)
			_, nHi := nodes[i].CapRange(c)
			if room := nHi - caps[i]; grant > room {
				grant = room
			}
			caps[i] += grant
			pool -= grant
		}
	}
	// Any unplaceable remainder (all needy nodes at their ceilings, or
	// no needy nodes at all) is returned evenly so the budget isn't
	// leaked.
	spreadSlack(nodes, caps, pool, alive, c)
	return caps
}
