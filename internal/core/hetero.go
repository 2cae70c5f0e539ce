// Capability-weighted budget division, the one division the allocators
// that move power use. SeeSAw's last step divides each partition's power
// over its live nodes by capability weight and clamps every node to its
// own range (capDivider); power-aware and time-aware bound their pools
// by the live nodes' own ceilings (addOrphans, spreadSlack). A node
// whose NodeCapability is zero has weight 1 and the global clamp range,
// so on a single-class cluster the division is the paper's "divide
// evenly and clamp to [delta_min, delta_max]" (Section IV-A); with
// device classes it is an EcoShift-style generalization of it.
package core

import (
	"fmt"

	"seesaw/internal/units"
)

// weightOf is a node's capability weight, 1 when it carries no class.
func weightOf(n *NodeMeasure) float64 {
	if n.Weight > 0 {
		return n.Weight
	}
	return 1
}

// capMember is one live node in a partition waterfill.
type capMember struct {
	idx    int
	w      float64
	lo, hi units.Watts
}

// capDivider divides partition totals over their nodes. It keeps the
// member lists and the returned caps across calls, so a policy that
// divides every synchronization allocates nothing (Policy ownership
// contract: the caps are valid until the next divide).
type capDivider struct {
	sim, ana []capMember
	caps     []units.Watts
}

// divide is the tail of SeeSAw's allocation: given the desired
// partition totals (already summing to the budget), clamp each total
// into its partition's feasible range — moving the excess or deficit to
// the partner partition, simulation first — then waterfill each
// partition across its live nodes by capability weight. Dead nodes get
// a zero cap; an invalid role panics with the offending value.
func (d *capDivider) divide(nodes []NodeMeasure, totS, totA units.Watts, c Constraints) []units.Watts {
	if cap(d.caps) < len(nodes) {
		d.caps = make([]units.Watts, len(nodes))
		d.sim = make([]capMember, 0, len(nodes))
		d.ana = make([]capMember, 0, len(nodes))
	}
	caps := d.caps[:len(nodes)]
	sim, ana := d.sim[:0], d.ana[:0]
	var loS, hiS, loA, hiA units.Watts
	for i := range nodes {
		n := &nodes[i]
		if n.Health == Dead {
			caps[i] = 0
			continue
		}
		lo, hi := n.CapRange(c)
		m := capMember{idx: i, w: weightOf(n), lo: lo, hi: hi}
		switch n.Role {
		case RoleSimulation:
			sim = append(sim, m)
			loS += lo
			hiS += hi
		case RoleAnalysis:
			ana = append(ana, m)
			loA += lo
			hiA += hi
		default:
			panic(fmt.Sprintf("core: measurement %d (node id %d) has invalid role %d", i, n.NodeID, int(n.Role)))
		}
	}

	// A budget beyond the live ceilings is left partly unassigned; one
	// below the live floors is overdrawn (hardware pins there
	// regardless).
	totS = units.ClampWatts(totS, loS, hiS)
	totA = units.ClampWatts(totA, loA, hiA)
	if r := c.Budget - (totS + totA); r != 0 {
		ns := units.ClampWatts(totS+r, loS, hiS)
		r -= ns - totS
		totS = ns
		totA = units.ClampWatts(totA+r, loA, hiA)
	}

	waterfill(sim, totS, caps)
	waterfill(ana, totA, caps)
	return caps
}

// waterfill divides total across the members proportionally to their
// weights (all positive, see weightOf), pinning members whose
// proportional share falls outside their [lo, hi] range at the violated
// bound and redistributing the rest. Deterministic: members are visited
// in slice (node-index) order. Results land in caps[m.idx]; ms is
// scratch, compacted in place as members pin.
//
// When total is below the sum of floors every member pins at lo (the
// overdraft a hardware floor forces anyway); above the sum of
// ceilings, at hi. Callers bound total accordingly to conserve budget.
func waterfill(ms []capMember, total units.Watts, caps []units.Watts) {
	remaining := total
	for len(ms) > 0 {
		var wsum float64
		for _, m := range ms {
			wsum += m.w
		}
		// Every share of a pass comes from the pass's starting total.
		pass := float64(remaining)
		keep := ms[:0]
		for _, m := range ms {
			share := units.Watts(pass * m.w / wsum)
			switch {
			case share < m.lo:
				caps[m.idx] = m.lo
				remaining -= m.lo
			case share > m.hi:
				caps[m.idx] = m.hi
				remaining -= m.hi
			default:
				caps[m.idx] = share
				keep = append(keep, m)
			}
		}
		if len(keep) == len(ms) {
			return
		}
		ms = keep
	}
}

// capConservationEps tolerates float rounding when checking that
// divided caps account for the whole budget.
const capConservationEps = units.Watts(1e-6)

// addOrphans returns pool plus the budget the live caps leave
// uncovered (a dead node's former share). The grants and spreadSlack
// clamp each cap to its own ceiling, so the pool needs no bound here.
func addOrphans(nodes []NodeMeasure, caps []units.Watts, pool units.Watts, c Constraints) units.Watts {
	var capTotal units.Watts
	for i := range nodes {
		if nodes[i].Health != Dead {
			capTotal += caps[i]
		}
	}
	if orphan := c.Budget - capTotal - pool; orphan > capConservationEps {
		pool += orphan
	}
	return pool
}

// spreadSlack returns an unplaced pool to the alive nodes in equal
// shares, each clamped to its own range. The part of a share that a
// node at its ceiling cannot take is dropped, not passed on.
func spreadSlack(nodes []NodeMeasure, caps []units.Watts, pool units.Watts, alive int, c Constraints) {
	if pool <= 0 {
		return
	}
	share := pool / units.Watts(alive)
	for i := range nodes {
		if nodes[i].Health == Dead {
			continue
		}
		lo, hi := nodes[i].CapRange(c)
		caps[i] = units.ClampWatts(caps[i]+share, lo, hi)
	}
}
