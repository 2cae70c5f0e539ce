package core

// Dead-node behaviour of the four comparable allocators: a killed node
// must be excluded from allocation and its budget share redistributed
// to the survivors within the constraint clamps.

import (
	"math"
	"testing"

	"seesaw/internal/units"
)

// kill marks ms[i] dead the way the cluster layer reports corpses:
// zero times, zero power, zero cap.
func kill(ms []NodeMeasure, i int) {
	ms[i].Health = Dead
	ms[i].Time, ms[i].BusyTime, ms[i].EpochTime = 0, 0, 0
	ms[i].Power, ms[i].Cap = 0, 0
}

func liveSum(ms []NodeMeasure, caps []units.Watts) units.Watts {
	var total units.Watts
	for i, m := range ms {
		if m.Health != Dead {
			total += caps[i]
		}
	}
	return total
}

func TestSeeSAwRedistributesDeadShare(t *testing.T) {
	c := testConstraints() // 880 W for 4+4
	s := MustNewSeeSAw(SeeSAwConfig{Constraints: c, Window: 1})
	ms := measures(5, 3, 100, 105, 110)
	kill(ms, 5) // one analysis node dies
	caps := s.Allocate(1, ms)
	if caps == nil {
		t.Fatal("no allocation with a live 4+3 membership")
	}
	if caps[5] != 0 {
		t.Errorf("dead node allocated %v", caps[5])
	}
	if got := liveSum(ms, caps); math.Abs(float64(got-c.Budget)) > 1e-6 {
		t.Errorf("live caps sum to %v, want the whole budget %v", got, c.Budget)
	}
	for i, m := range ms {
		if m.Health == Dead {
			continue
		}
		if caps[i] < c.MinCap || caps[i] > c.MaxCap {
			t.Errorf("cap[%d] = %v outside [%v, %v]", i, caps[i], c.MinCap, c.MaxCap)
		}
	}
}

func TestSeeSAwNoAllocationWhenPartitionWipedOut(t *testing.T) {
	s := MustNewSeeSAw(SeeSAwConfig{Constraints: testConstraints(), Window: 1})
	ms := measures(5, 3, 100, 105, 110)
	for i := 4; i < 8; i++ {
		kill(ms, i)
	}
	if got := s.Allocate(1, ms); got != nil {
		t.Errorf("allocation with a dead analysis partition: %v", got)
	}
}

func TestPowerAwareRedistributesDeadShare(t *testing.T) {
	c := testConstraints()
	p := MustNewPowerAware(DefaultPowerAwareConfig(c))
	// Every survivor is at its cap (needy); node 2 is dead.
	ms := measures(5, 3, 110, 110, 110)
	kill(ms, 2)
	caps := p.Allocate(1, ms)
	if caps == nil {
		t.Fatal("no allocation despite needy survivors and a corpse")
	}
	if caps[2] != 0 {
		t.Errorf("dead node allocated %v", caps[2])
	}
	if got := liveSum(ms, caps); math.Abs(float64(got-c.Budget)) > 1e-6 {
		t.Errorf("live caps sum to %v, want %v: the dead share was not returned", got, c.Budget)
	}
	for i, m := range ms {
		if m.Health != Dead && caps[i] <= 110 {
			t.Errorf("survivor %d gained nothing: %v", i, caps[i])
		}
	}
}

// TestOrphansFillLiveCeilings: three dead nodes leave more budget than
// the survivors can hold, so every survivor ends at its own ceiling.
// Power-aware trims two lowpower donors to 51 W and grants the pool to
// two needy cpu nodes (which reach 215 W) and a needy lowpower node
// (already at 90 W); the remainder, spread in equal shares, must carry
// the donors back up to 90 W. Shrinking the orphan pool to the live
// ceilings' room first left each donor at 82.2 W.
func TestOrphansFillLiveCeilings(t *testing.T) {
	c := testConstraints()
	lowpower := NodeCapability{Class: "lowpower", MinCap: 40, MaxCap: 90, Weight: 0.6}
	ms := measures(5, 3, 110, 90, 110)
	for _, i := range []int{2, 3, 4} {
		ms[i].NodeCapability, ms[i].Cap = lowpower, 90
	}
	ms[2].Power, ms[3].Power = 50, 50
	for i := 5; i < 8; i++ {
		kill(ms, i)
	}
	caps := MustNewPowerAware(DefaultPowerAwareConfig(c)).Allocate(1, ms)
	for i := range ms {
		want := units.Watts(0)
		if ms[i].Health != Dead {
			_, want = ms[i].CapRange(c)
		}
		if math.Abs(float64(caps[i]-want)) > 1e-9 {
			t.Errorf("node %d cap %v, want %v", i, caps[i], want)
		}
	}
}

func TestPowerAwareActsOnDeadEvenWithoutNeedy(t *testing.T) {
	c := testConstraints()
	p := MustNewPowerAware(DefaultPowerAwareConfig(c))
	// Nobody is at the cap, but a corpse holds budget: the policy must
	// still run to hand the share back.
	ms := measures(5, 3, 100, 100, 110)
	kill(ms, 7)
	caps := p.Allocate(1, ms)
	if caps == nil {
		t.Fatal("nil allocation leaves the dead node's share orphaned")
	}
	if got := liveSum(ms, caps); got <= 770 {
		t.Errorf("live caps sum to %v, want more than the pre-kill 770", got)
	}
}

func TestTimeAwareRedistributesDeadShare(t *testing.T) {
	c := testConstraints()
	ta := MustNewTimeAware(DefaultTimeAwareConfig(c))
	ms := measures(5, 5, 108, 108, 110)
	ms[0].EpochTime = 2 // one fast node donates
	kill(ms, 6)
	caps := ta.Allocate(1, ms)
	if caps == nil {
		t.Fatal("no allocation with a live membership")
	}
	if caps[6] != 0 {
		t.Errorf("dead node allocated %v", caps[6])
	}
	if got := liveSum(ms, caps); math.Abs(float64(got-c.Budget)) > 1e-6 {
		t.Errorf("live caps sum to %v, want %v", got, c.Budget)
	}
}

func TestTimeAwareAllDeadReturnsNil(t *testing.T) {
	ta := MustNewTimeAware(DefaultTimeAwareConfig(testConstraints()))
	ms := measures(5, 5, 108, 108, 110)
	for i := range ms {
		kill(ms, i)
	}
	if got := ta.Allocate(1, ms); got != nil {
		t.Errorf("allocation over an empty membership: %v", got)
	}
}

func TestHierarchicalDeadNodeRetired(t *testing.T) {
	c := testConstraints()
	h := MustNewHierarchical(DefaultHierarchicalConfig(c))
	ms := measures(5, 3, 100, 105, 110)
	ms[1].BusyTime = 6 // intra-partition heterogeneity
	// Let the intra level accumulate an offset on node 0 first.
	for step := 1; step <= 3; step++ {
		h.Allocate(step, ms)
	}
	kill(ms, 0)
	caps := h.Allocate(4, ms)
	if caps == nil {
		t.Fatal("no allocation after kill")
	}
	if caps[0] != 0 {
		t.Errorf("dead node allocated %v", caps[0])
	}
	if off := h.Offsets()[0]; off != 0 {
		t.Errorf("dead node still holds intra-partition offset %v", off)
	}
	for i, m := range ms {
		if m.Health == Dead {
			continue
		}
		if caps[i] < c.MinCap || caps[i] > c.MaxCap {
			t.Errorf("cap[%d] = %v outside hardware range", i, caps[i])
		}
	}
}
