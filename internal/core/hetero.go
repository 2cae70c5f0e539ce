// Heterogeneity-aware budget division. When measurements carry device
// classes (NodeCapability set by the cluster layer), the uniform
// per-node division of clampPartitionCaps/expandPartitionCaps is
// replaced by a capability-weighted waterfill that respects each
// node's own clamp range. Homogeneous measurements never reach this
// code: every allocator gates on heteroNodes first, so the legacy
// arithmetic — and the goldens pinned to it — stays untouched.
package core

import (
	"fmt"

	"seesaw/internal/units"
)

// heteroNodes reports whether any measurement carries class
// capability; the cluster layer sets Weight on every node or none.
func heteroNodes(nodes []NodeMeasure) bool {
	for i := range nodes {
		if nodes[i].NodeCapability.Hetero() {
			return true
		}
	}
	return false
}

// weightOf is a node's capability weight with the homogeneous
// fallback of 1.
func weightOf(n *NodeMeasure) float64 {
	if n.Weight > 0 {
		return n.Weight
	}
	return 1
}

// heteroMember is one live node in a partition waterfill.
type heteroMember struct {
	idx    int
	w      float64
	lo, hi units.Watts
}

// heteroMembers splits the live measurements into per-partition
// waterfill members carrying each node's weight and clamp range.
func heteroMembers(nodes []NodeMeasure, c Constraints) (sim, ana []heteroMember) {
	for i := range nodes {
		n := &nodes[i]
		if n.Health == Dead {
			continue
		}
		lo, hi := n.CapRange(c)
		m := heteroMember{idx: i, w: weightOf(n), lo: lo, hi: hi}
		switch n.Role {
		case RoleSimulation:
			sim = append(sim, m)
		case RoleAnalysis:
			ana = append(ana, m)
		default:
			panic(fmt.Sprintf("core: measurement %d (node id %d) has invalid role %d", i, n.NodeID, int(n.Role)))
		}
	}
	return sim, ana
}

// memberBounds sums a partition's feasible cap range.
func memberBounds(ms []heteroMember) (lo, hi units.Watts) {
	for _, m := range ms {
		lo += m.lo
		hi += m.hi
	}
	return lo, hi
}

// waterfill divides total across the members proportionally to their
// weights, pinning members whose proportional share falls outside
// their [lo, hi] range at the violated bound and redistributing the
// rest — the heterogeneous generalization of "divide the partition's
// power evenly over its nodes and clamp". Deterministic: members are
// visited in slice (node-index) order. Results land in caps[m.idx].
//
// When total is below the sum of floors every member pins at lo (the
// overdraft a hardware floor forces anyway); above the sum of
// ceilings, at hi. Callers bound total accordingly to conserve budget.
func waterfill(ms []heteroMember, total units.Watts, caps []units.Watts) {
	remaining := total
	unpinned := append([]heteroMember(nil), ms...)
	shares := make([]units.Watts, 0, len(ms))
	for len(unpinned) > 0 {
		var wsum float64
		for _, m := range unpinned {
			wsum += m.w
		}
		shares = shares[:0]
		for _, m := range unpinned {
			if wsum > 0 {
				shares = append(shares, units.Watts(float64(remaining)*m.w/wsum))
			} else {
				shares = append(shares, remaining/units.Watts(len(unpinned)))
			}
		}
		keep := unpinned[:0]
		pinned := false
		for j, m := range unpinned {
			switch {
			case shares[j] < m.lo:
				caps[m.idx] = m.lo
				remaining -= m.lo
				pinned = true
			case shares[j] > m.hi:
				caps[m.idx] = m.hi
				remaining -= m.hi
				pinned = true
			default:
				caps[m.idx] = shares[j]
				keep = append(keep, m)
			}
		}
		if !pinned {
			return
		}
		unpinned = keep
	}
}

// heteroPartitionCaps is the heterogeneous tail of SeeSAw's
// allocation: given the desired partition totals (already summing to
// the budget), clamp each total into its partition's feasible range —
// moving the excess or deficit to the partner partition, the
// partition-granular analogue of clampPartitionCaps — then waterfill
// each partition across its nodes by capability weight. Dead nodes
// keep a zero cap, as in expandPartitionCaps.
func heteroPartitionCaps(nodes []NodeMeasure, totS, totA units.Watts, c Constraints) []units.Watts {
	sim, ana := heteroMembers(nodes, c)
	caps := make([]units.Watts, len(nodes))
	loS, hiS := memberBounds(sim)
	loA, hiA := memberBounds(ana)

	// The distributable total: the budget, bounded by what the live
	// nodes can hold under their ceilings and forced up to the sum of
	// their floors (hardware pins there regardless).
	target := c.Budget
	if m := hiS + hiA; target > m {
		target = m
	}
	if m := loS + loA; target < m {
		target = m
	}
	totS = units.ClampWatts(totS, loS, hiS)
	totA = units.ClampWatts(totA, loA, hiA)
	if d := target - (totS + totA); d != 0 {
		// Settle the residual on the simulation partition first
		// (deterministic, mirroring clampPartitionCaps), then the rest
		// on the analysis side; by construction of target it fits.
		ns := units.ClampWatts(totS+d, loS, hiS)
		d -= ns - totS
		totS = ns
		totA = units.ClampWatts(totA+d, loA, hiA)
	}

	waterfill(sim, totS, caps)
	waterfill(ana, totA, caps)
	return caps
}
