package core

import (
	"math"
	"testing"

	"seesaw/internal/units"
)

func TestHierarchicalValidation(t *testing.T) {
	bad := DefaultHierarchicalConfig(testConstraints())
	bad.IntraStep = 0
	if _, err := NewHierarchical(bad); err == nil {
		t.Error("zero intra step should be rejected")
	}
	bad = DefaultHierarchicalConfig(testConstraints())
	bad.IntraSlack = 1.5
	if _, err := NewHierarchical(bad); err == nil {
		t.Error("out-of-range intra slack should be rejected")
	}
	bad = DefaultHierarchicalConfig(Constraints{})
	if _, err := NewHierarchical(bad); err == nil {
		t.Error("empty constraints should be rejected")
	}
}

func TestHierarchicalName(t *testing.T) {
	h := MustNewHierarchical(DefaultHierarchicalConfig(testConstraints()))
	if h.Name() != "seesaw-hierarchical" {
		t.Errorf("name = %q", h.Name())
	}
}

func TestHierarchicalBalancesWithinPartition(t *testing.T) {
	h := MustNewHierarchical(DefaultHierarchicalConfig(testConstraints()))
	ms := measures(4, 4, 108, 108, 110)
	// One simulation node consistently slower than its siblings.
	ms[0].BusyTime = 5
	var caps []units.Watts
	for step := 1; step <= 5; step++ {
		caps = h.Allocate(step, ms)
	}
	if caps == nil {
		t.Fatal("expected caps")
	}
	// The slow sim node must have gained power relative to a fast one.
	if !(caps[0] > caps[1]) {
		t.Errorf("slow node cap %v not above fast sibling %v", caps[0], caps[1])
	}
	// Intra-level transfers are zero-sum: partition totals stay within
	// the budget.
	var total units.Watts
	for _, c := range caps {
		if c < 98 || c > 215 {
			t.Errorf("cap %v outside range", c)
		}
		total += c
	}
	if float64(total) > float64(testConstraints().Budget)+1e-6 {
		t.Errorf("total %v exceeds budget", total)
	}
}

func TestHierarchicalNoActionWhenHomogeneous(t *testing.T) {
	h := MustNewHierarchical(DefaultHierarchicalConfig(testConstraints()))
	ms := measures(4, 4, 108, 108, 110)
	h.Allocate(1, ms)
	for i, off := range h.Offsets() {
		if off != 0 {
			t.Errorf("offset[%d] = %v for homogeneous nodes", i, off)
		}
	}
}

func TestHierarchicalOffsetsBounded(t *testing.T) {
	cfg := DefaultHierarchicalConfig(testConstraints())
	h := MustNewHierarchical(cfg)
	ms := measures(4, 4, 108, 108, 110)
	ms[0].BusyTime = 8 // persistently slow
	for step := 1; step <= 200; step++ {
		h.Allocate(step, ms)
	}
	limit := (testConstraints().MaxCap - testConstraints().MinCap) / 4
	for i, off := range h.Offsets() {
		if off > limit || off < -limit {
			t.Errorf("offset[%d] = %v beyond bound %v", i, off, limit)
		}
	}
}

func TestHierarchicalResetsOnNodeSetChange(t *testing.T) {
	h := MustNewHierarchical(DefaultHierarchicalConfig(testConstraints()))
	ms := measures(4, 4, 108, 108, 110)
	ms[0].BusyTime = 6
	h.Allocate(1, ms)
	// Shrink the job: offsets must be rebuilt, not indexed stale.
	small := measures(1, 1, 108, 108, 110)[:2]
	if got := h.Allocate(2, small); len(got) != 2 {
		t.Errorf("caps length %d after node-set change", len(got))
	}
}

func TestExploringValidation(t *testing.T) {
	bad := DefaultExploringConfig(testConstraints())
	bad.Period = 1
	if _, err := NewExploringSeeSAw(bad); err == nil {
		t.Error("period < 2 should be rejected")
	}
	bad = DefaultExploringConfig(testConstraints())
	bad.Probe = 0
	if _, err := NewExploringSeeSAw(bad); err == nil {
		t.Error("zero probe should be rejected")
	}
}

func TestExploringProbesAndReverts(t *testing.T) {
	cfg := DefaultExploringConfig(testConstraints())
	cfg.Period = 3
	e := MustNewExploringSeeSAw(cfg)

	ms := measures(4, 4, 105, 110, 110)
	var probeCaps, preCaps []units.Watts
	for step := 1; step <= 3; step++ {
		caps := e.Allocate(step, ms)
		if step < 3 && caps == nil {
			t.Fatalf("expected inner allocation at step %d", step)
		}
		if step == 3 {
			probeCaps = caps
			preCaps = e.preCaps
		}
	}
	if !e.probing {
		t.Fatal("probe not launched at the configured period")
	}
	if probeCaps == nil || preCaps == nil {
		t.Fatal("probe bookkeeping missing")
	}
	// Report a slower interval: the probe must be reverted to the
	// pre-probe caps.
	slow := measures(10, 10, 105, 110, 110)
	got := e.Allocate(4, slow)
	if got == nil {
		t.Fatal("expected revert caps")
	}
	for i := range got {
		if got[i] != preCaps[i] {
			t.Fatalf("cap[%d] = %v, want pre-probe %v", i, got[i], preCaps[i])
		}
	}
}

func TestExploringKeepsWinningProbe(t *testing.T) {
	cfg := DefaultExploringConfig(testConstraints())
	cfg.Period = 3
	e := MustNewExploringSeeSAw(cfg)
	ms := measures(4, 4, 105, 110, 110)
	for step := 1; step <= 3; step++ {
		e.Allocate(step, ms)
	}
	if !e.probing {
		t.Fatal("no probe launched")
	}
	// Report a faster interval: the probe caps stay in force (nil = no
	// change) and a hold period begins.
	fast := measures(2, 2, 105, 110, 110)
	if got := e.Allocate(4, fast); got != nil {
		t.Errorf("winning probe should keep caps (nil), got %v", got)
	}
	if e.holdLeft == 0 {
		t.Error("hold period not started after a won probe")
	}
}

// TestAblationCapsInNodeRange drives the hierarchical and exploring
// allocators over a classed 4+4 set with a dead analysis node, closing
// the loop through exploration probes: every live cap stays inside its
// node's own range (90 W for the lowpower nodes, not the global 215 W),
// and the dead node's cap stays 0.
func TestAblationCapsInNodeRange(t *testing.T) {
	c := testConstraints()
	lowpower := NodeCapability{Class: "lowpower", MinCap: 40, MaxCap: 90, Weight: 0.6}
	ecfg := DefaultExploringConfig(c)
	ecfg.Period = 2
	explore := MustNewExploringSeeSAw(ecfg)
	for _, pol := range []Policy{MustNewHierarchical(DefaultHierarchicalConfig(c)), explore} {
		t.Run(pol.Name(), func(t *testing.T) {
			ms := measures(4, 4, 105, 110, 110)
			for i := range ms {
				// Skew busy times within each partition so the
				// hierarchical level moves power between siblings.
				ms[i].BusyTime = units.Seconds(3 + 0.2*float64(i))
			}
			ms[6].NodeCapability, ms[6].Cap = lowpower, 90
			ms[7].NodeCapability, ms[7].Cap = lowpower, 90
			ms[5] = NodeMeasure{Role: RoleAnalysis, Health: Dead}
			probes := 0
			for step := 1; step <= 12; step++ {
				caps := pol.Allocate(step, ms)
				if explore.probing {
					probes++
				}
				for i := range caps {
					lo, hi := ms[i].CapRange(c)
					if ms[i].Health == Dead {
						if caps[i] != 0 {
							t.Fatalf("step %d: dead node %d capped at %v", step, i, caps[i])
						}
						continue
					}
					if caps[i] < lo || caps[i] > hi {
						t.Fatalf("step %d: node %d cap %v outside its range [%v, %v]", step, i, caps[i], lo, hi)
					}
					ms[i].Cap = caps[i]
				}
			}
			if pol == Policy(explore) && probes == 0 {
				t.Fatal("no exploration probe launched")
			}
		})
	}
}

// TestExploringProbeConservesBudget launches a probe on an even 4+4 set
// and on sets whose live partitions differ in size, a 4+4 set with a
// dead analysis node and a 3+5 set: the unclamped probe caps must sum
// to the pre-probe caps, whatever the live sizes.
func TestExploringProbeConservesBudget(t *testing.T) {
	cases := []struct {
		name  string
		shape func(ms []NodeMeasure)
	}{
		{"4+4", func([]NodeMeasure) {}},
		{"4+4 dead analysis node", func(ms []NodeMeasure) { ms[5] = NodeMeasure{Role: RoleAnalysis, Health: Dead} }},
		{"3+5", func(ms []NodeMeasure) { ms[3].Role = RoleAnalysis }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultExploringConfig(testConstraints())
			cfg.Period = 2
			e := MustNewExploringSeeSAw(cfg)
			ms := measures(4, 4, 105, 110, 110)
			tc.shape(ms)
			var probe []units.Watts
			for step := 1; step <= 2; step++ {
				probe = e.Allocate(step, ms)
			}
			if !e.probing || probe == nil {
				t.Fatal("no probe launched")
			}
			var pre, got units.Watts
			for i := range probe {
				lo, hi := ms[i].CapRange(cfg.Constraints)
				if ms[i].Health != Dead && (probe[i] == lo || probe[i] == hi) {
					t.Fatalf("node %d probe cap %v clamped; the case must stay unclamped", i, probe[i])
				}
				pre += e.preCaps[i]
				got += probe[i]
			}
			if math.Abs(float64(got-pre)) > 1e-9 {
				t.Errorf("probe caps sum to %v, the pre-probe caps to %v", got, pre)
			}
		})
	}
}

func TestExploringCapsInRange(t *testing.T) {
	cfg := DefaultExploringConfig(testConstraints())
	cfg.Period = 2
	e := MustNewExploringSeeSAw(cfg)
	ms := measures(4, 4, 105, 110, 110)
	for step := 1; step <= 50; step++ {
		caps := e.Allocate(step, ms)
		for _, c := range caps {
			if c < 98 || c > 215 {
				t.Fatalf("cap %v outside range at step %d", c, step)
			}
		}
	}
}
