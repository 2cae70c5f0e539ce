// The strictly time-aware policy: GEOPM's power-balancer plug-in as
// described in Section II of the paper.
package core

import (
	"fmt"

	"seesaw/internal/units"
)

// TimeAwareConfig parameterizes the GEOPM-style balancer.
type TimeAwareConfig struct {
	// Constraints carry the budget and hardware cap range.
	Constraints Constraints
	// TargetSlack is the percentage below the maximum median runtime
	// that designates the target runtime ("the higher the percentage,
	// the more reactive the algorithm").
	TargetSlack float64
	// InitialStep is the power moved per adjustment at the start.
	InitialStep units.Watts
	// StepDecay multiplies the step after each adjustment round
	// ("the rate of change in power decreases over time").
	StepDecay float64
	// MinStep is the user-configured minimum rate of change.
	MinStep units.Watts
}

// DefaultTimeAwareConfig returns a configuration matching GEOPM's
// published defaults in spirit: 10% target slack, decaying step.
func DefaultTimeAwareConfig(c Constraints) TimeAwareConfig {
	return TimeAwareConfig{
		Constraints: c,
		TargetSlack: 0.03,
		InitialStep: 7,
		StepDecay:   0.85,
		MinStep:     1,
	}
}

// TimeAware reimplements GEOPM's power balancer for the in-situ setting:
// at every synchronization (invoked there per Section VI-B; the w window
// deliberately has no effect, mimicking the original behaviour), each
// node's median rank runtime is compared against a target runtime set a
// fixed percentage below the maximum median across nodes. Nodes faster
// than the target give up `step` Watts; the freed power is granted to
// the slower nodes, and any slack that cannot be placed is redistributed
// to all nodes equally. The step decays geometrically to a floor.
//
// The policy looks only at time: when both partitions run slowly at low
// power (e.g. the analysis pinned at delta_min dragging the simulation
// into an idle-wait low-power state), their time difference is
// incidentally small and the balancer sees nothing to fix — the failure
// mode of Section VII-B3.
type TimeAware struct {
	cfg  TimeAwareConfig
	step units.Watts

	// caps backs the returned caps slice (Policy ownership contract:
	// valid until the next Allocate); slow is per-call scratch.
	caps []units.Watts
	slow []int
}

// NewTimeAware returns a time-aware allocator.
func NewTimeAware(cfg TimeAwareConfig) (*TimeAware, error) {
	if cfg.TargetSlack <= 0 || cfg.TargetSlack >= 1 {
		return nil, fmt.Errorf("core: time-aware target slack %v outside (0,1)", cfg.TargetSlack)
	}
	if cfg.InitialStep <= 0 || cfg.MinStep <= 0 || cfg.MinStep > cfg.InitialStep {
		return nil, fmt.Errorf("core: invalid time-aware steps init=%v min=%v", cfg.InitialStep, cfg.MinStep)
	}
	if cfg.StepDecay <= 0 || cfg.StepDecay > 1 {
		return nil, fmt.Errorf("core: time-aware decay %v outside (0,1]", cfg.StepDecay)
	}
	if err := cfg.Constraints.Validate(0); err != nil {
		return nil, err
	}
	return &TimeAware{cfg: cfg, step: cfg.InitialStep}, nil
}

// MustNewTimeAware is NewTimeAware that panics on config errors.
func MustNewTimeAware(cfg TimeAwareConfig) *TimeAware {
	t, err := NewTimeAware(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements Policy.
func (*TimeAware) Name() string { return "time-aware" }

// Step returns the current adjustment step size (for tests).
func (t *TimeAware) Step() units.Watts { return t.step }

// Allocate implements Policy.
func (t *TimeAware) Allocate(step int, nodes []NodeMeasure) []units.Watts {
	if len(nodes) == 0 {
		return nil
	}
	c := t.cfg.Constraints

	// The balancer sees epoch (loop-iteration) times where available.
	timeOf := func(n *NodeMeasure) units.Seconds {
		if n.EpochTime > 0 {
			return n.EpochTime
		}
		return n.Time
	}

	// Target runtime: a fixed percentage below the max median runtime.
	// Dead nodes report no time and never set the target.
	var maxT units.Seconds
	alive := 0
	for i := range nodes {
		n := &nodes[i]
		if n.Health == Dead {
			continue
		}
		alive++
		if timeOf(n) > maxT {
			maxT = timeOf(n)
		}
	}
	if maxT <= 0 || alive == 0 {
		return nil
	}
	target := units.Seconds(float64(maxT) * (1 - t.cfg.TargetSlack))

	if cap(t.caps) < len(nodes) {
		t.caps = make([]units.Watts, len(nodes))
		t.slow = make([]int, 0, len(nodes))
	}
	caps := t.caps[:len(nodes)]
	var pool units.Watts
	slow := t.slow[:0]
	for i := range nodes {
		n := &nodes[i]
		if n.Health == Dead {
			// Dead nodes hold no cap; their former share re-enters
			// the pool below.
			caps[i] = 0
			continue
		}
		caps[i] = n.Cap
		if timeOf(n) < target {
			// Faster than target: slow it down by moving step Watts
			// away (bounded by the node's own delta_min).
			nLo, _ := n.CapRange(c)
			give := t.step
			room := n.Cap - nLo
			if give > room {
				give = room
			}
			caps[i] -= give
			pool += give
		} else {
			slow = append(slow, i)
		}
	}
	// Dynamic membership: budget not covered by the live caps (a dead
	// node's former share) joins the pool.
	pool = addOrphans(nodes, caps, pool, c)

	// Grant the freed power to the slower nodes, bounded by each
	// node's own ceiling.
	if len(slow) > 0 && pool > 0 {
		share := pool / units.Watts(len(slow))
		for _, i := range slow {
			grant := share
			_, nHi := nodes[i].CapRange(c)
			room := nHi - caps[i]
			if grant > room {
				grant = room
			}
			caps[i] += grant
			pool -= grant
		}
	}
	// "If there is slack power, it is redistributed to all nodes
	// equally."
	spreadSlack(nodes, caps, pool, alive, c)

	// Decay the rate of change toward the configured minimum.
	t.step = units.Watts(float64(t.step) * t.cfg.StepDecay)
	if t.step < t.cfg.MinStep {
		t.step = t.cfg.MinStep
	}
	return caps
}
