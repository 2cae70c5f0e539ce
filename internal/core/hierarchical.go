// Hierarchical power allocation: the paper's first future-work item
// ("power should be allocated through a hierarchical decision-making
// process that breaks down SeeSAw's power allocation to the individual
// compute units", Section VIII).
package core

import (
	"fmt"

	"seesaw/internal/units"
)

// HierarchicalConfig parameterizes the two-level allocator.
type HierarchicalConfig struct {
	// Constraints carry the global budget and per-node cap range.
	Constraints Constraints
	// Window is the partition-level SeeSAw window w.
	Window int
	// IntraStep bounds how many Watts the intra-partition level may
	// move between two nodes of the same partition per allocation.
	IntraStep units.Watts
	// IntraSlack is the relative time difference between a node and its
	// partition's fastest node below which no intra-partition shifting
	// happens (guards against noise-chasing).
	IntraSlack float64
}

// DefaultHierarchicalConfig returns conservative intra-partition
// balancing on top of a standard SeeSAw configuration.
func DefaultHierarchicalConfig(c Constraints) HierarchicalConfig {
	return HierarchicalConfig{
		Constraints: c,
		Window:      1,
		IntraStep:   2,
		IntraSlack:  0.01,
	}
}

// Hierarchical composes SeeSAw's partition-level split with a second,
// intra-partition level that addresses node heterogeneity: within each
// partition, nodes that consistently finish earlier than their siblings
// donate a bounded amount of power to the slower ones, keeping the
// partition totals exactly as SeeSAw assigned them. This targets the
// heterogeneity that uniform per-partition caps cannot fix (node speed
// and power-efficiency skew — the job-to-job effects of Table I).
type Hierarchical struct {
	cfg    HierarchicalConfig
	seesaw *SeeSAw

	// current per-node offsets from the partition-uniform cap; they sum
	// to zero within each partition.
	offsets []units.Watts
}

// NewHierarchical returns a two-level allocator.
func NewHierarchical(cfg HierarchicalConfig) (*Hierarchical, error) {
	if cfg.IntraStep <= 0 {
		return nil, fmt.Errorf("core: hierarchical intra step must be positive, got %v", cfg.IntraStep)
	}
	if cfg.IntraSlack < 0 || cfg.IntraSlack >= 1 {
		return nil, fmt.Errorf("core: hierarchical intra slack %v outside [0,1)", cfg.IntraSlack)
	}
	ss, err := NewSeeSAw(SeeSAwConfig{Constraints: cfg.Constraints, Window: cfg.Window})
	if err != nil {
		return nil, err
	}
	return &Hierarchical{cfg: cfg, seesaw: ss}, nil
}

// MustNewHierarchical is NewHierarchical that panics on config errors.
func MustNewHierarchical(cfg HierarchicalConfig) *Hierarchical {
	h, err := NewHierarchical(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Name implements Policy.
func (*Hierarchical) Name() string { return "seesaw-hierarchical" }

// Allocate implements Policy.
func (h *Hierarchical) Allocate(step int, nodes []NodeMeasure) []units.Watts {
	if h.offsets == nil {
		h.offsets = make([]units.Watts, len(nodes))
	}
	if len(h.offsets) != len(nodes) {
		// Node set changed mid-run: reset the intra level.
		h.offsets = make([]units.Watts, len(nodes))
	}
	// A dead node's offset is retired: its partition share re-enters
	// through level 1's live-membership division, so holding its
	// zero-sum IOU would skew the survivors.
	for i, n := range nodes {
		if n.Health == Dead {
			h.offsets[i] = 0
		}
	}

	// Level 1: the partition split.
	caps := h.seesaw.Allocate(step, nodes)
	if caps == nil {
		// No partition-level change this step; rebuild the current
		// uniform caps from the measurements so level 2 can still act.
		caps = make([]units.Watts, len(nodes))
		for i, n := range nodes {
			caps[i] = n.Cap - h.offsets[i]
		}
	}

	// Level 2: zero-sum intra-partition balancing. Within each
	// partition, the node slowest relative to the partition's fastest
	// gains IntraStep from the fastest (bounded by the hardware range),
	// tracked as offsets so partition totals stay what level 1 chose.
	h.balancePartition(RoleSimulation, nodes)
	h.balancePartition(RoleAnalysis, nodes)

	out := make([]units.Watts, len(nodes))
	for i, n := range nodes {
		if n.Health == Dead {
			continue // dead nodes keep a zero cap
		}
		lo, hi := n.CapRange(h.cfg.Constraints)
		out[i] = units.ClampWatts(caps[i]+h.offsets[i], lo, hi)
	}
	return out
}

// balancePartition moves IntraStep from the partition's fastest node to
// its slowest when their busy times differ by more than IntraSlack.
func (h *Hierarchical) balancePartition(role Role, nodes []NodeMeasure) {
	fast, slow := -1, -1
	for i, n := range nodes {
		if n.Role != role || n.Health == Dead || n.BusyTime <= 0 {
			continue
		}
		if fast < 0 || n.BusyTime < nodes[fast].BusyTime {
			fast = i
		}
		if slow < 0 || n.BusyTime > nodes[slow].BusyTime {
			slow = i
		}
	}
	if fast < 0 || slow < 0 || fast == slow {
		return
	}
	gap := float64(nodes[slow].BusyTime-nodes[fast].BusyTime) / float64(nodes[slow].BusyTime)
	if gap < h.cfg.IntraSlack {
		return
	}
	// Bound the offsets so a node never drifts more than the range the
	// hardware supports relative to the partition cap.
	h.offsets[fast] -= h.cfg.IntraStep
	h.offsets[slow] += h.cfg.IntraStep
	limit := (h.cfg.Constraints.MaxCap - h.cfg.Constraints.MinCap) / 4
	h.offsets[fast] = units.ClampWatts(h.offsets[fast], -limit, limit)
	h.offsets[slow] = units.ClampWatts(h.offsets[slow], -limit, limit)
}

// Offsets exposes the current intra-partition offsets (for tests and the
// ablation harness).
func (h *Hierarchical) Offsets() []units.Watts {
	return append([]units.Watts(nil), h.offsets...)
}
