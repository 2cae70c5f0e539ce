package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"seesaw/internal/units"
)

func testConstraints() Constraints {
	return Constraints{Budget: 110 * 8, MinCap: 98, MaxCap: 215}
}

// measures builds a 4+4 node measurement set with given partition times
// and per-node powers.
func measures(simT, anaT units.Seconds, simP, anaP units.Watts, cap units.Watts) []NodeMeasure {
	var ms []NodeMeasure
	for i := 0; i < 4; i++ {
		ms = append(ms, NodeMeasure{Role: RoleSimulation, Time: simT, BusyTime: simT, EpochTime: simT, Power: simP, Cap: cap})
	}
	for i := 0; i < 4; i++ {
		ms = append(ms, NodeMeasure{Role: RoleAnalysis, Time: anaT, BusyTime: anaT, EpochTime: anaT, Power: anaP, Cap: cap})
	}
	return ms
}

func TestRoleString(t *testing.T) {
	if RoleSimulation.String() != "sim" || RoleAnalysis.String() != "ana" {
		t.Error("role strings wrong")
	}
	// An unknown role must surface its value, not read as a partition.
	if got := Role(7).String(); got != "invalid-role(7)" {
		t.Errorf("invalid role renders as %q", got)
	}
	if !RoleSimulation.Valid() || !RoleAnalysis.Valid() || Role(2).Valid() || Role(-1).Valid() {
		t.Error("Role.Valid wrong")
	}
}

func TestHealth(t *testing.T) {
	var h Health
	if h != Healthy {
		t.Error("zero Health is not Healthy")
	}
	if !Healthy.Alive() || !Degraded.Alive() || Dead.Alive() {
		t.Error("Health.Alive wrong")
	}
	for h, want := range map[Health]string{Healthy: "healthy", Degraded: "degraded", Dead: "dead", Health(9): "invalid-health(9)"} {
		if got := h.String(); got != want {
			t.Errorf("Health(%d).String() = %q, want %q", int(h), got, want)
		}
	}
}

func TestPartitionTotalsInvalidRolePanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("invalid role did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "invalid role 3") {
			t.Errorf("panic does not name the offending value: %v", r)
		}
	}()
	partitionTotals([]NodeMeasure{{NodeID: 5, Role: Role(3)}})
}

func TestExpandPartitionCapsInvalidRolePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid role did not panic")
		}
	}()
	expandPartitionCaps([]NodeMeasure{{Role: Role(-2)}}, 110, 110)
}

func TestConstraintsValidate(t *testing.T) {
	good := testConstraints()
	if err := good.Validate(8); err != nil {
		t.Errorf("valid constraints rejected: %v", err)
	}
	bad := []Constraints{
		{Budget: 0, MinCap: 98, MaxCap: 215},
		{Budget: 1000, MinCap: 0, MaxCap: 215},
		{Budget: 1000, MinCap: 215, MaxCap: 98},
		{Budget: 100, MinCap: 98, MaxCap: 215}, // below 8*98
		{Budget: units.Watts(math.NaN()), MinCap: 98, MaxCap: 215},
		{Budget: units.Watts(math.Inf(1)), MinCap: 98, MaxCap: 215},
		{Budget: 1000, MinCap: units.Watts(math.NaN()), MaxCap: 215},
		{Budget: 1000, MinCap: 98, MaxCap: units.Watts(math.NaN())},
		{Budget: 1000, MinCap: 98, MaxCap: units.Watts(math.Inf(1))},
	}
	for i, c := range bad {
		if err := c.Validate(8); err == nil {
			t.Errorf("constraints %d should be rejected", i)
		}
	}
}

// TestConstraintsValidateShrinkingNodes covers the membership sizes a
// fault plan produces: validation is against the live node count, which
// shrinks as nodes die.
func TestConstraintsValidateShrinkingNodes(t *testing.T) {
	c := testConstraints() // 880 W, [98, 215]
	// nodes=0: the per-node feasibility check is vacuous, the rest of
	// the constraint sanity checks still apply.
	if err := c.Validate(0); err != nil {
		t.Errorf("Validate(0): %v", err)
	}
	if err := (Constraints{Budget: -1, MinCap: 98, MaxCap: 215}).Validate(0); err == nil {
		t.Error("Validate(0) skipped the budget sanity check")
	}
	// Budget exactly at MinCap*nodes is feasible (every node pinned at
	// delta_min), one node more is not.
	exact := Constraints{Budget: 98 * 8, MinCap: 98, MaxCap: 215}
	if err := exact.Validate(8); err != nil {
		t.Errorf("budget exactly at MinCap*nodes rejected: %v", err)
	}
	if err := exact.Validate(9); err == nil {
		t.Error("budget below MinCap*9 accepted")
	}
	// Post-kill membership: the same constraints become *easier* to
	// satisfy as nodes die — every count down from 8 must validate.
	for n := 8; n >= 0; n-- {
		if err := c.Validate(n); err != nil {
			t.Errorf("Validate(%d) after kills: %v", n, err)
		}
	}
}

func TestStatic(t *testing.T) {
	s := NewStatic()
	if s.Name() != "static" {
		t.Error("wrong name")
	}
	if got := s.Allocate(1, measures(4, 4, 108, 108, 110)); got != nil {
		t.Error("static policy must never reallocate")
	}
}

func TestEvenSplit(t *testing.T) {
	c := testConstraints()
	if got := EvenSplit(c, 8); got != 110 {
		t.Errorf("EvenSplit = %v, want 110", got)
	}
	if got := EvenSplit(c, 0); got != 0 {
		t.Errorf("EvenSplit with zero nodes = %v", got)
	}
	// Clamped to MinCap when budget is tight relative to node count.
	tight := Constraints{Budget: 98 * 10, MinCap: 98, MaxCap: 215}
	if got := EvenSplit(tight, 10); got != 98 {
		t.Errorf("tight EvenSplit = %v, want 98", got)
	}
}

// TestEvenSplitShrinkingNodes walks the node count down as kills would:
// the per-node share grows monotonically and saturates at delta_max,
// and the degenerate zero-membership split stays zero.
func TestEvenSplitShrinkingNodes(t *testing.T) {
	c := testConstraints() // 880 W for what was 8 nodes
	prev := units.Watts(0)
	for n := 8; n >= 1; n-- {
		got := EvenSplit(c, n)
		if got < c.MinCap || got > c.MaxCap {
			t.Errorf("EvenSplit(%d) = %v outside [%v, %v]", n, got, c.MinCap, c.MaxCap)
		}
		if got < prev {
			t.Errorf("EvenSplit(%d) = %v shrank below the %d-node share %v", n, got, n+1, prev)
		}
		prev = got
	}
	if got := EvenSplit(c, 4); got != 215 {
		t.Errorf("EvenSplit(4) = %v, want saturation at delta_max (880/4 > 215)", got)
	}
	if got := EvenSplit(c, 0); got != 0 {
		t.Errorf("EvenSplit(0) = %v, want 0", got)
	}
	// Budget exactly at MinCap*nodes: the split sits on delta_min.
	exact := Constraints{Budget: 98 * 6, MinCap: 98, MaxCap: 215}
	if got := EvenSplit(exact, 6); got != 98 {
		t.Errorf("exact-minimum EvenSplit = %v, want 98", got)
	}
}

// divideEven runs the one division on nSim+nAna single-class measures
// with per-node partition values pS and pA, that is partition totals
// pS*nSim and pA*nAna, and returns the caps, simulation nodes first.
func divideEven(pS, pA units.Watts, nSim, nAna int, c Constraints) []units.Watts {
	ms := make([]NodeMeasure, 0, nSim+nAna)
	for i := 0; i < nSim; i++ {
		ms = append(ms, NodeMeasure{NodeID: i, Role: RoleSimulation})
	}
	for i := 0; i < nAna; i++ {
		ms = append(ms, NodeMeasure{NodeID: nSim + i, Role: RoleAnalysis})
	}
	var d capDivider
	return d.divide(ms, pS*units.Watts(nSim), pA*units.Watts(nAna), c)
}

// partitionCaps returns the per-node caps of the first nSim and of the
// remaining caps, failing when a partition's nodes disagree.
func partitionCaps(t *testing.T, caps []units.Watts, nSim int) (s, a units.Watts) {
	t.Helper()
	for i, c := range caps {
		p := &a
		if i < nSim {
			p = &s
		}
		if i == 0 || i == nSim {
			*p = c
		} else if c != *p {
			t.Fatalf("uneven single-class division: cap[%d] = %v, partition has %v (caps %v)", i, c, *p, caps)
		}
	}
	return s, a
}

// TestClampPartitionCaps: the division enforces the delta_min/delta_max
// rule of Section IV-A on single-class partitions: a partition whose
// per-node share falls outside the range is pinned to the bound and
// the other partition receives the remaining power.
func TestClampPartitionCaps(t *testing.T) {
	c := testConstraints() // budget 880, caps [98,215], 4+4 nodes

	// Below delta_min: pinned, remainder to the other side.
	s, a := partitionCaps(t, divideEven(90, 130, 4, 4, c), 4)
	if s != 98 {
		t.Errorf("sim cap = %v, want delta_min 98", s)
	}
	wantA := units.ClampWatts((c.Budget-98*4)/4, c.MinCap, c.MaxCap)
	if a != wantA {
		t.Errorf("ana cap = %v, want remainder %v", a, wantA)
	}

	// Above delta_max with enough budget: pinned at 215.
	rich := Constraints{Budget: 215*4 + 120*4, MinCap: 98, MaxCap: 215}
	s, a = partitionCaps(t, divideEven(300, 10, 4, 4, rich), 4)
	if s != 215 {
		t.Errorf("sim cap = %v, want delta_max", s)
	}
	if a != 120 {
		t.Errorf("ana cap = %v, want the 120 remainder", a)
	}

	// The double-pin case: pS above delta_max, pA below delta_min, and
	// the budget cannot afford delta_max for the pinned side: sim gets
	// what the budget affords once ana sits on its floor.
	s, a = partitionCaps(t, divideEven(300, 10, 4, 4, c), 4)
	if a != 98 {
		t.Errorf("ana cap = %v, want delta_min 98", a)
	}
	if want := (c.Budget - 98*4) / 4; s != want {
		t.Errorf("sim cap = %v, want affordable remainder %v", s, want)
	}

	// In range: untouched.
	s, a = partitionCaps(t, divideEven(120, 100, 4, 4, c), 4)
	if s != 120 || a != 100 {
		t.Errorf("in-range caps modified: %v/%v", s, a)
	}

	// Empty partitions: the live side receives the whole clamped budget.
	s, _ = partitionCaps(t, divideEven(110, 110, 4, 0, c), 4)
	if s != 215 { // 880/4 = 220, clamped to delta_max
		t.Errorf("sim-only cap = %v, want 215", s)
	}
	_, a = partitionCaps(t, divideEven(110, 110, 0, 4, c), 0)
	if a != 215 {
		t.Errorf("ana-only cap = %v, want 215", a)
	}
}

func TestClampPartitionCapsProperty(t *testing.T) {
	c := testConstraints()
	f := func(rawS, rawA float64) bool {
		ps := units.Watts(math.Abs(math.Mod(rawS, 400)))
		pa := units.Watts(math.Abs(math.Mod(rawA, 400)))
		for _, cp := range divideEven(ps, pa, 4, 4, c) {
			if cp < c.MinCap || cp > c.MaxCap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestClampPartitionCapsConservation: for any inputs and any feasible
// split of the live membership, the divided caps account for the whole
// budget exactly — unless the range itself forbids it (everything
// pinned at delta_max still undershoots an over-rich budget).
func TestClampPartitionCapsConservation(t *testing.T) {
	f := func(rawS, rawA float64, rawSim, rawAna uint8) bool {
		nSim := 1 + int(rawSim%8)
		nAna := 1 + int(rawAna%8)
		c := Constraints{Budget: 110 * units.Watts(nSim+nAna), MinCap: 98, MaxCap: 215}
		ps := units.Watts(math.Abs(math.Mod(rawS, 400)))
		pa := units.Watts(math.Abs(math.Mod(rawA, 400)))
		var total units.Watts
		for _, cp := range divideEven(ps, pa, nSim, nAna, c) {
			total += cp
		}
		return math.Abs(float64(total-c.Budget)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Post-kill membership: the live counts shrink but the budget does
	// not; conservation holds until delta_max saturates, then every
	// survivor is pinned there.
	c := testConstraints() // 880 W for what was 4+4
	var d capDivider
	ms := measures(1, 1, 100, 100, 110)
	ms[0].Health = Dead // 3+4 survivors
	caps := d.divide(ms, 110*3, 110*4, c)
	var got units.Watts
	for i, cp := range caps {
		got += cp
		if i >= 4 && cp != 110 {
			t.Errorf("3+4 survivors: ana cap[%d] = %v, want 110", i, cp)
		}
	}
	if caps[0] != 0 || math.Abs(float64(got-c.Budget)) > 1e-6 {
		t.Errorf("3+4 survivors allocate %v of %v (dead cap %v)", got, c.Budget, caps[0])
	}
	ms[1].Health, ms[4].Health, ms[5].Health = Dead, Dead, Dead // 2+2, 880 > 215*4
	for i, cp := range d.divide(ms, 110*2, 110*2, c) {
		want := units.Watts(215)
		if ms[i].Health == Dead {
			want = 0
		}
		if cp != want {
			t.Errorf("saturated survivors: cap[%d] = %v, want %v", i, cp, want)
		}
	}
}

func TestPartitionTotals(t *testing.T) {
	ms := measures(5, 3, 100, 105, 110)
	ms[1].Time = 7 // one slow sim node
	simT, anaT, simP, anaP, nSim, nAna := partitionTotals(ms)
	if simT != 7 || anaT != 3 {
		t.Errorf("partition times = %v/%v", simT, anaT)
	}
	if simP != 400 || anaP != 420 {
		t.Errorf("partition powers = %v/%v", simP, anaP)
	}
	if nSim != 4 || nAna != 4 {
		t.Errorf("partition sizes = %d/%d", nSim, nAna)
	}
}

// TestPartitionTotalsExcludesDead: a killed node leaves the live counts
// and contributes neither time nor power.
func TestPartitionTotalsExcludesDead(t *testing.T) {
	ms := measures(5, 3, 100, 105, 110)
	ms[0].Health = Dead
	ms[0].Time, ms[0].Power = 0, 0
	ms[5].Health = Dead
	ms[5].Time, ms[5].Power = 99, 500 // stale values on a corpse must not count
	simT, anaT, simP, anaP, nSim, nAna := partitionTotals(ms)
	if nSim != 3 || nAna != 3 {
		t.Errorf("live sizes = %d/%d, want 3/3", nSim, nAna)
	}
	if simP != 300 || anaP != 315 {
		t.Errorf("live powers = %v/%v", simP, anaP)
	}
	if simT != 5 || anaT != 3 {
		t.Errorf("live times = %v/%v", simT, anaT)
	}
	// Degraded nodes stay in the membership.
	ms[1].Health = Degraded
	_, _, _, _, nSim, _ = partitionTotals(ms)
	if nSim != 3 {
		t.Errorf("degraded node dropped from membership: nSim = %d", nSim)
	}
}

func TestExpandPartitionCaps(t *testing.T) {
	ms := measures(1, 1, 100, 100, 110)
	caps := expandPartitionCaps(ms, 120, 100)
	for i, m := range ms {
		want := units.Watts(100)
		if m.Role == RoleSimulation {
			want = 120
		}
		if caps[i] != want {
			t.Errorf("cap[%d] = %v, want %v", i, caps[i], want)
		}
	}
}

func TestExpandPartitionCapsDeadGetZero(t *testing.T) {
	ms := measures(1, 1, 100, 100, 110)
	ms[2].Health = Dead
	caps := expandPartitionCaps(ms, 120, 100)
	if caps[2] != 0 {
		t.Errorf("dead node cap = %v, want 0", caps[2])
	}
	if caps[0] != 120 || caps[4] != 100 {
		t.Errorf("live caps wrong: %v", caps)
	}
}
