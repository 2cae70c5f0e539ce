// Package core implements the power-allocation policies the paper
// studies for power-constrained space-shared in-situ analysis:
//
//   - SeeSAw (the paper's contribution, Section IV): energy-feedback
//     allocation that rebalances the global budget between the
//     simulation and analysis partitions so both reach synchronization
//     points at the same time;
//   - the strictly power-aware policy (SLURM's scheme, Section II):
//     shift excess power from nodes below their cap to nodes at it;
//   - the strictly time-aware policy (GEOPM's power balancer,
//     Section II): shift power from faster to slower nodes with a
//     decaying step;
//   - the static baseline: the budget split evenly once and never moved.
//
// All policies are strictly online: they see only per-node (time, power,
// cap) measurements from the interval that just completed, and emit new
// per-node power caps. The adaptive ones share one capability-weighted
// division of power over nodes (hetero.go), which clamps every node to
// its own range; on a single-class cluster it divides evenly.
package core

import (
	"fmt"

	"seesaw/internal/units"
)

// Role labels a node as belonging to the simulation or the analysis
// partition (the application knowledge PoLiMER's instrumentation
// supplies).
type Role int

// Partition roles.
const (
	RoleSimulation Role = iota
	RoleAnalysis
)

// String returns "sim" or "ana". Invalid roles render with the
// offending value rather than being folded into a partition.
func (r Role) String() string {
	switch r {
	case RoleSimulation:
		return "sim"
	case RoleAnalysis:
		return "ana"
	default:
		return fmt.Sprintf("invalid-role(%d)", int(r))
	}
}

// Valid reports whether r is a defined partition role.
func (r Role) Valid() bool { return r == RoleSimulation || r == RoleAnalysis }

// Health is a node's lifecycle state as the cluster layer tracks it.
// The zero value is Healthy, so measurements built by fault-unaware
// callers remain correct.
type Health int

// Lifecycle states.
const (
	// Healthy nodes run at full speed.
	Healthy Health = iota
	// Degraded nodes still execute work but under a transient
	// slowdown (a fault-plan excursion); they stay in the allocation.
	Degraded
	// Dead nodes are gone: they execute nothing, draw no power, and
	// the allocators exclude them, redistributing their budget share.
	Dead
)

// String names the state.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("invalid-health(%d)", int(h))
	}
}

// Alive reports whether the node still executes work.
func (h Health) Alive() bool { return h != Dead }

// NodeMeasure is what one node reports for the interval between two
// invocations of the allocator.
type NodeMeasure struct {
	// NodeID is the node's stable identifier (cosim node index /
	// insitu world rank); it survives membership changes, so a policy
	// can correlate a node's measurements across intervals even after
	// other nodes die.
	NodeID int
	// Role is the node's partition membership.
	Role Role
	// Health is the node's lifecycle state. Dead nodes report zero
	// times and power and are excluded from allocation; their budget
	// share is redistributed to the survivors within the constraint
	// clamps.
	Health Health
	// Time is the interval between the node's consecutive allocator
	// calls (poli_power_alloc is invoked immediately before each
	// synchronization, so a faster node's interval includes its wait at
	// the previous synchronization), including the time to perform the
	// previous allocation — the paper's Section VI-B measurement.
	Time units.Seconds
	// BusyTime is the node's pure work time within the interval,
	// excluding synchronization waits; the harness uses it for the
	// normalized-slack bookkeeping of Figures 4 and 5.
	BusyTime units.Seconds
	// EpochTime is the node's iteration time as a loop-level monitor
	// (GEOPM's epoch) sees it: it includes part of the synchronization
	// wait, because the epoch markers bracket the whole loop body
	// rather than the work leading up to the synchronization. The
	// time-aware policy consumes this measure (falling back to Time
	// when zero); SeeSAw deliberately uses Time, which PoLiMER's
	// instrumentation ties to the synchronization event — one of the
	// paper's central points about application knowledge.
	EpochTime units.Seconds
	// Power is the node's average measured power over the interval.
	Power units.Watts
	// Cap is the per-node power cap that was in force.
	Cap units.Watts
	// NodeCapability carries the node's device-class capability in a
	// heterogeneous cluster; it is zero on a single-class cluster.
	NodeCapability
}

// epochWaitShare is the fraction of the synchronization wait a
// loop-level (epoch) monitor attributes to the iteration itself: epoch
// markers bracket the whole loop body, so most of the wait is folded
// into the apparent iteration time.
const epochWaitShare = 0.8

// EpochTime is the epoch-time model every driver fills
// NodeMeasure.EpochTime from: a node's busy time plus epochWaitShare of
// the rest of its interval (the synchronization wait).
func EpochTime(busy, interval units.Seconds) units.Seconds {
	return busy + (interval-busy)*epochWaitShare
}

// NodeCapability describes a node's device class as the allocators see
// it: the per-node clamp range its RAPL domain supports and a
// capability weight (unconstrained speed on the reference compute
// phase, relative to the default class — machine.Class.Weight). The
// zero value is a node of weight 1 with the global Constraints' clamp
// range, so the one capability-weighted division divides a
// single-class cluster evenly.
type NodeCapability struct {
	// Class names the device class ("cpu", "gpu", ...); informational.
	Class string
	// MinCap/MaxCap are the node's own clamp range (its class's RAPL
	// floor and TDP, scaled with the node). Zero defers to the global
	// Constraints bound.
	MinCap units.Watts
	MaxCap units.Watts
	// Weight is the class's capability weight (cpu ≡ 1). Zero counts
	// as 1.
	Weight float64
}

// CapRange returns the node's effective per-node cap clamp range: its
// own class range where set, the global constraint range otherwise.
func (n *NodeMeasure) CapRange(c Constraints) (lo, hi units.Watts) {
	lo, hi = c.MinCap, c.MaxCap
	if n.MinCap > 0 {
		lo = n.MinCap
	}
	if n.MaxCap > 0 {
		hi = n.MaxCap
	}
	return lo, hi
}

// Constraints bound every allocation.
type Constraints struct {
	// Budget is the global power budget C for the whole job.
	Budget units.Watts
	// MinCap is delta_min: the lowest per-node cap hardware supports.
	MinCap units.Watts
	// MaxCap is delta_max: the highest per-node cap (TDP).
	MaxCap units.Watts
}

// Validate reports constraint errors.
func (c Constraints) Validate(nodes int) error {
	if c.Budget <= 0 || !units.IsFinite(float64(c.Budget)) {
		return fmt.Errorf("core: budget must be positive and finite, got %v", c.Budget)
	}
	if c.MinCap <= 0 || c.MaxCap <= c.MinCap ||
		!units.IsFinite(float64(c.MinCap)) || !units.IsFinite(float64(c.MaxCap)) {
		return fmt.Errorf("core: invalid cap range [%v, %v]", c.MinCap, c.MaxCap)
	}
	if nodes > 0 && c.Budget < c.MinCap*units.Watts(nodes) {
		return fmt.Errorf("core: budget %v below minimum %v for %d nodes",
			c.Budget, c.MinCap*units.Watts(nodes), nodes)
	}
	return nil
}

// Policy is an online power-allocation strategy. Allocate is invoked at
// each simulation-analysis synchronization with the measurements of the
// interval that just ended; it returns new per-node caps (aligned with
// nodes), or nil to leave caps unchanged.
//
// Ownership: the returned slice may be scratch storage the policy
// reuses — it is valid until the policy's next Allocate call. Callers
// that retain caps across allocations must copy them (the drivers
// write caps to the RAPL domains immediately and never retain).
type Policy interface {
	// Name identifies the policy ("seesaw", "power-aware",
	// "time-aware", "static").
	Name() string
	// Allocate computes new per-node caps. step counts
	// synchronizations from 1; step 0 (outside the main loop) is never
	// passed.
	Allocate(step int, nodes []NodeMeasure) []units.Watts
}

// Static is the paper's baseline: the global budget split evenly across
// nodes once, never changed. Allocate always returns nil.
type Static struct{}

// NewStatic returns the static baseline policy.
func NewStatic() *Static { return &Static{} }

// Name implements Policy.
func (*Static) Name() string { return "static" }

// Allocate implements Policy; the static policy never moves power.
func (*Static) Allocate(int, []NodeMeasure) []units.Watts { return nil }

// EvenSplit returns the per-node cap of an even division of the budget,
// clamped to the constraint range; the harness uses it for initial caps.
func EvenSplit(c Constraints, nodes int) units.Watts {
	if nodes <= 0 {
		return 0
	}
	return units.ClampWatts(c.Budget/units.Watts(nodes), c.MinCap, c.MaxCap)
}

// partitionTotals aggregates per-node measurements into the partition
// quantities SeeSAw's formulation uses: the slowest node time and the
// summed power of each partition. Dead nodes are excluded, so the
// returned counts are the partitions' live memberships; a measurement
// with an invalid role panics with the offending value rather than
// being silently folded into a partition.
func partitionTotals(nodes []NodeMeasure) (simT, anaT units.Seconds, simP, anaP units.Watts, nSim, nAna int) {
	for i := range nodes {
		n := &nodes[i]
		if !n.Role.Valid() {
			panic(fmt.Sprintf("core: measurement %d (node id %d) has invalid role %d", i, n.NodeID, int(n.Role)))
		}
		if n.Health == Dead {
			continue
		}
		switch n.Role {
		case RoleSimulation:
			nSim++
			simP += n.Power
			if n.Time > simT {
				simT = n.Time
			}
		case RoleAnalysis:
			nAna++
			anaP += n.Power
			if n.Time > anaT {
				anaT = n.Time
			}
		}
	}
	return
}

// expandPartitionCaps materializes per-node cap slices from per-node
// partition values, aligned with the nodes slice. Dead nodes receive a
// zero cap (the drivers never write zero caps to hardware); invalid
// roles panic with the offending value.
func expandPartitionCaps(nodes []NodeMeasure, pS, pA units.Watts) []units.Watts {
	caps := make([]units.Watts, len(nodes))
	for i := range nodes {
		n := &nodes[i]
		switch {
		case n.Health == Dead:
			caps[i] = 0
		case n.Role == RoleSimulation:
			caps[i] = pS
		case n.Role == RoleAnalysis:
			caps[i] = pA
		default:
			panic(fmt.Sprintf("core: measurement %d (node id %d) has invalid role %d", i, n.NodeID, int(n.Role)))
		}
	}
	return caps
}
