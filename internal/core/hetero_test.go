package core

import (
	"math"
	"testing"

	"seesaw/internal/units"
)

// lcg is a tiny deterministic generator for property-style tests, so
// failures reproduce without a seed dance.
type lcg uint64

func (g *lcg) next() float64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return float64(*g>>11) / float64(1<<53)
}

func (g *lcg) between(lo, hi float64) float64 { return lo + (hi-lo)*g.next() }

// randomCapability draws one of the test's three synthetic classes.
func randomCapability(g *lcg) NodeCapability {
	switch int(g.between(0, 3)) {
	case 0:
		return NodeCapability{Class: "cpu", MinCap: 98, MaxCap: 215, Weight: 1}
	case 1:
		return NodeCapability{Class: "gpu", MinCap: 100, MaxCap: 320, Weight: 2.2}
	default:
		return NodeCapability{Class: "lowpower", MinCap: 40, MaxCap: 90, Weight: 0.6}
	}
}

// randomHeteroNodes builds a measurement set with mixed classes, both
// roles, and a few dead nodes.
func randomHeteroNodes(g *lcg, n int) []NodeMeasure {
	nodes := make([]NodeMeasure, n)
	for i := range nodes {
		role := RoleSimulation
		if i >= n/2 {
			role = RoleAnalysis
		}
		nodes[i] = NodeMeasure{
			NodeID:         i,
			Role:           role,
			Health:         Healthy,
			Time:           units.Seconds(g.between(0.5, 3)),
			BusyTime:       units.Seconds(g.between(0.3, 2.5)),
			Power:          units.Watts(g.between(60, 200)),
			Cap:            units.Watts(g.between(98, 215)),
			NodeCapability: randomCapability(g),
		}
		// Keep at least one live node per partition.
		if g.next() < 0.15 && i != 0 && i != n/2 {
			nodes[i].Health = Dead
			nodes[i].Time, nodes[i].BusyTime, nodes[i].Power = 0, 0, 0
		}
	}
	return nodes
}

// checkHeteroCaps asserts the heterogeneous division invariants: dead
// nodes get zero, every live node lands inside its own clamp range, and
// the total never exceeds max(budget, sum of live floors) — the
// overdraft a hardware floor forces anyway.
func checkHeteroCaps(t *testing.T, nodes []NodeMeasure, caps []units.Watts, c Constraints) {
	t.Helper()
	if len(caps) != len(nodes) {
		t.Fatalf("caps length %d for %d nodes", len(caps), len(nodes))
	}
	var total, floors units.Watts
	for i, n := range nodes {
		if n.Health == Dead {
			if caps[i] != 0 {
				t.Errorf("dead node %d got cap %v", i, caps[i])
			}
			continue
		}
		lo, hi := n.CapRange(c)
		if caps[i] < lo-capConservationEps || caps[i] > hi+capConservationEps {
			t.Errorf("node %d (%s) cap %v outside [%v, %v]", i, n.Class, caps[i], lo, hi)
		}
		total += caps[i]
		floors += lo
	}
	limit := c.Budget
	if floors > limit {
		limit = floors
	}
	if total > limit+capConservationEps {
		t.Errorf("caps total %v exceeds limit %v (budget %v, floors %v)", total, limit, c.Budget, floors)
	}
}

func TestWaterfillConservesAndClamps(t *testing.T) {
	g := lcg(1)
	for trial := 0; trial < 200; trial++ {
		n := 2 + int(g.between(0, 14))
		ms := make([]capMember, n)
		var lo, hi units.Watts
		for i := range ms {
			cap := randomCapability(&g)
			ms[i] = capMember{idx: i, w: float64(cap.Weight), lo: cap.MinCap, hi: cap.MaxCap}
			lo += cap.MinCap
			hi += cap.MaxCap
		}
		// A feasible total must be conserved exactly; member clamps hold.
		total := units.Watts(g.between(float64(lo), float64(hi)))
		caps := make([]units.Watts, n)
		waterfill(append([]capMember(nil), ms...), total, caps)
		var sum units.Watts
		for i, m := range ms {
			if caps[i] < m.lo-capConservationEps || caps[i] > m.hi+capConservationEps {
				t.Fatalf("trial %d: member %d cap %v outside [%v, %v]", trial, i, caps[i], m.lo, m.hi)
			}
			sum += caps[i]
		}
		if math.Abs(float64(sum-total)) > float64(capConservationEps)*float64(n) {
			t.Fatalf("trial %d: waterfill sum %v != total %v", trial, sum, total)
		}
		// Determinism: the same inputs give the same division.
		again := make([]units.Watts, n)
		waterfill(append([]capMember(nil), ms...), total, again)
		for i := range caps {
			if caps[i] != again[i] {
				t.Fatalf("trial %d: waterfill not deterministic at member %d", trial, i)
			}
		}
	}
}

func TestWaterfillEdgeTotals(t *testing.T) {
	ms := []capMember{
		{idx: 0, w: 1, lo: 98, hi: 215},
		{idx: 1, w: 2.2, lo: 100, hi: 320},
	}
	// Below the sum of floors every member pins at lo.
	caps := make([]units.Watts, 2)
	waterfill(append([]capMember(nil), ms...), 150, caps)
	if caps[0] != 98 || caps[1] != 100 {
		t.Errorf("under-floor waterfill = %v, want floors", caps)
	}
	// Above the sum of ceilings every member pins at hi.
	caps = make([]units.Watts, 2)
	waterfill(ms, 1000, caps)
	if caps[0] != 215 || caps[1] != 320 {
		t.Errorf("over-ceiling waterfill = %v, want ceilings", caps)
	}
	// Equal weights (a single-class partition) split evenly.
	ems := []capMember{{idx: 0, w: 1, lo: 0, hi: 500}, {idx: 1, w: 1, lo: 0, hi: 500}}
	caps = make([]units.Watts, 2)
	waterfill(ems, 200, caps)
	if caps[0] != 100 || caps[1] != 100 {
		t.Errorf("equal-weight waterfill = %v, want even split", caps)
	}
}

func TestHeteroPartitionCapsProperties(t *testing.T) {
	g := lcg(7)
	var d capDivider
	for trial := 0; trial < 200; trial++ {
		n := 4 + 2*int(g.between(0, 7))
		nodes := randomHeteroNodes(&g, n)
		c := Constraints{
			Budget: units.Watts(g.between(80, 220)) * units.Watts(n),
			MinCap: 98,
			MaxCap: 215,
		}
		totS := units.Watts(g.between(0.2, 0.8)) * c.Budget
		caps := d.divide(nodes, totS, c.Budget-totS, c)
		checkHeteroCaps(t, nodes, caps, c)
	}
}

// fuzzClasses are the capabilities FuzzPartitionCaps assigns on mixed
// clusters: the zero value (weight 1 with the global range) and the
// three synthetic classes of randomCapability.
var fuzzClasses = [...]NodeCapability{
	{},
	{Class: "cpu", MinCap: 98, MaxCap: 215, Weight: 1},
	{Class: "gpu", MinCap: 100, MaxCap: 320, Weight: 2.2},
	{Class: "lowpower", MinCap: 40, MaxCap: 90, Weight: 0.6},
}

// FuzzPartitionCaps drives the one division over 1–16 nodes per
// partition, any set of dead nodes, single-class and mixed clusters,
// budgets that pass Constraints.Validate and arbitrary partition
// totals. It divides on a divider that has already divided the same
// nodes all alive, as a policy does when a node dies mid-run. Dead
// nodes must get 0, every live cap must lie in its own range, and the
// caps must sum to the budget bounded by the live floors and ceilings.
func FuzzPartitionCaps(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint32(0), uint64(0), false, 110.0, 0.5, 0.5)
	f.Add(uint8(2), uint8(4), uint32(0b1000_0101), uint64(0xE4E4), true, 140.0, 0.9, 0.1)
	f.Add(uint8(15), uint8(15), ^uint32(0), uint64(0), false, 98.0, 0.3, 0.7)
	f.Add(uint8(1), uint8(1), uint32(0), ^uint64(0), true, 400.0, 2.0, -1.0)
	f.Add(uint8(7), uint8(0), uint32(0b10), uint64(0x5555), true, 98.5, 0.0, 1.0)
	f.Fuzz(func(t *testing.T, rawSim, rawAna uint8, dead uint32, classes uint64, mixed bool, perNode, fracS, fracA float64) {
		nSim, nAna := 1+int(rawSim%16), 1+int(rawAna%16)
		n := nSim + nAna
		c := Constraints{Budget: units.Watts(perNode) * units.Watts(n), MinCap: 98, MaxCap: 215}
		totS, totA := units.Watts(fracS)*c.Budget, units.Watts(fracA)*c.Budget
		if c.Validate(n) != nil || !units.IsFinite(float64(totS)) || !units.IsFinite(float64(totA)) {
			return
		}
		nodes := make([]NodeMeasure, n)
		for i := range nodes {
			nodes[i] = NodeMeasure{NodeID: i, Role: RoleSimulation}
			if i >= nSim {
				nodes[i].Role = RoleAnalysis
			}
			if mixed {
				nodes[i].NodeCapability = fuzzClasses[classes>>(2*i)&3]
			}
		}
		var d capDivider
		d.divide(nodes, totS, totA, c)
		for i := range nodes {
			if dead>>i&1 != 0 {
				nodes[i].Health = Dead
			}
		}
		caps := d.divide(nodes, totS, totA, c)

		var sum, floors, ceilings units.Watts
		for i, cp := range caps {
			if nodes[i].Health == Dead {
				if cp != 0 {
					t.Fatalf("dead node %d got cap %v", i, cp)
				}
				continue
			}
			lo, hi := nodes[i].CapRange(c)
			if cp < lo-capConservationEps || cp > hi+capConservationEps {
				t.Fatalf("node %d cap %v outside its range [%v, %v]", i, cp, lo, hi)
			}
			sum += cp
			floors += lo
			ceilings += hi
		}
		if want := units.ClampWatts(c.Budget, floors, ceilings); math.Abs(float64(sum-want)) > float64(capConservationEps) {
			t.Fatalf("caps sum to %v, want %v (budget %v, live floors %v, ceilings %v)", sum, want, c.Budget, floors, ceilings)
		}
	})
}

// TestHeteroAllocatorsRespectPerNodeClamps drives each allocator over
// several synthetic heterogeneous intervals and asserts every returned
// division satisfies the per-class clamps and the global budget.
func TestHeteroAllocatorsRespectPerNodeClamps(t *testing.T) {
	c := Constraints{Budget: 110 * 8, MinCap: 98, MaxCap: 215}
	mk := func(name string) Policy {
		switch name {
		case "seesaw":
			return MustNewSeeSAw(SeeSAwConfig{Constraints: c, Window: 1})
		case "power-aware":
			return MustNewPowerAware(DefaultPowerAwareConfig(c))
		case "time-aware":
			return MustNewTimeAware(DefaultTimeAwareConfig(c))
		}
		t.Fatalf("unknown policy %s", name)
		return nil
	}
	for _, name := range []string{"seesaw", "power-aware", "time-aware"} {
		t.Run(name, func(t *testing.T) {
			pol := mk(name)
			g := lcg(13)
			// Fixed population with closed-loop caps: as in the drivers,
			// each interval measures under the caps the previous Allocate
			// returned (starting from the even split clamped per node).
			nodes := randomHeteroNodes(&g, 8)
			for i := range nodes {
				lo, hi := nodes[i].CapRange(c)
				nodes[i].Cap = units.ClampWatts(EvenSplit(c, 8), lo, hi)
			}
			for step := 1; step <= 40; step++ {
				for i := range nodes {
					if nodes[i].Health == Dead {
						continue
					}
					nodes[i].Time = units.Seconds(g.between(0.5, 3))
					nodes[i].BusyTime = units.Seconds(g.between(0.3, 2.5))
					p := units.Watts(g.between(0.5, 1)) * nodes[i].Cap
					nodes[i].Power = p
				}
				if step == 20 {
					// Mid-run kill: the dead node's share must flow back to
					// survivors without breaking their clamps.
					nodes[3].Health = Dead
					nodes[3].Time, nodes[3].BusyTime, nodes[3].Power, nodes[3].Cap = 0, 0, 0, 0
				}
				caps := pol.Allocate(step, nodes)
				if caps == nil {
					continue
				}
				checkHeteroCaps(t, nodes, caps, c)
				for i := range nodes {
					if nodes[i].Health != Dead {
						nodes[i].Cap = caps[i]
					}
				}
			}
		})
	}
}
