package cluster

import (
	"strings"
	"testing"

	"seesaw/internal/core"
	"seesaw/internal/fault"
	"seesaw/internal/machine"
	"seesaw/internal/rapl"
	"seesaw/internal/units"
)

func TestClassResolution(t *testing.T) {
	c := mustNew(t, Config{
		SimNodes: 2, AnaNodes: 2, JobSeed: 1,
		Classes: machine.MustParseClassMap("1:gpu,3:lowpower"),
	})
	if c.CapabilityFn() == nil {
		t.Fatal("classed cluster has no capability table")
	}
	gpu, _ := machine.PresetClass("gpu")
	lp, _ := machine.PresetClass("lowpower")
	wants := []struct {
		class          string
		minCap, maxCap units.Watts
	}{
		{"default", rapl.Theta().MinCap, rapl.Theta().TDP},
		{"gpu", gpu.Rapl.MinCap, gpu.Rapl.TDP},
		{"default", rapl.Theta().MinCap, rapl.Theta().TDP},
		{"lowpower", lp.Rapl.MinCap, lp.Rapl.TDP},
	}
	for i, want := range wants {
		cap := c.Capability(i)
		if cap.Class != want.class || cap.MinCap != want.minCap || cap.MaxCap != want.maxCap {
			t.Errorf("node %d capability = %+v, want %s [%v, %v]", i, cap, want.class, want.minCap, want.maxCap)
		}
		if cap.Weight <= 0 {
			t.Errorf("node %d weight %g not positive", i, cap.Weight)
		}
		if m := c.Measure(i); m.NodeCapability != cap {
			t.Errorf("node %d measure capability %+v != %+v", i, m.NodeCapability, cap)
		}
	}
	// Weight ordering carries through to the capability table.
	if !(c.Capability(3).Weight < c.Capability(0).Weight && c.Capability(0).Weight < c.Capability(1).Weight) {
		t.Errorf("weights not ordered: lowpower %g, default %g, gpu %g",
			c.Capability(3).Weight, c.Capability(0).Weight, c.Capability(1).Weight)
	}
	if fn := c.CapabilityFn(); fn == nil || fn(1) != c.Capability(1) {
		t.Error("CapabilityFn broken on hetero cluster")
	}
}

func TestHomogeneousClusterStaysZero(t *testing.T) {
	c := mustNew(t, Config{SimNodes: 2, AnaNodes: 2, JobSeed: 1})
	if cap := c.Capability(0); cap != (core.NodeCapability{}) {
		t.Errorf("homogeneous capability %+v not zero", cap)
	}
	if c.CapabilityFn() != nil {
		t.Error("homogeneous CapabilityFn not nil")
	}
	if m := c.Measure(0); m.NodeCapability != (core.NodeCapability{}) {
		t.Error("homogeneous measure carries capability")
	}
}

func TestClassErrors(t *testing.T) {
	if _, err := New(Config{SimNodes: 2, AnaNodes: 2,
		Classes: machine.MustParseClassMap("0-1:warpcore")}); err == nil ||
		!strings.Contains(err.Error(), "warpcore") {
		t.Errorf("unknown class error unhelpful: %v", err)
	}
	if _, err := New(Config{SimNodes: 2, AnaNodes: 2,
		Classes: machine.MustParseClassMap("0-7:gpu")}); err == nil ||
		!strings.Contains(err.Error(), "cluster size") {
		t.Errorf("oversized class map error unhelpful: %v", err)
	}
}

// TestScalesCompressClassCapRange pins the Scales x classes
// interaction: a scaled node's capability range is its class range
// scaled, so the allocators' per-node clamps follow the physical
// fraction exactly as the RAPL domain does.
func TestScalesCompressClassCapRange(t *testing.T) {
	gpu, _ := machine.PresetClass("gpu")
	c := mustNew(t, Config{
		SimNodes: 2, AnaNodes: 2, JobSeed: 1,
		Classes: machine.MustParseClassMap("0-3:gpu"),
		Scales:  []float64{1, 0.5, 1, 0.5},
	})
	for i, scale := range []float64{1, 0.5, 1, 0.5} {
		cap := c.Capability(i)
		wantLo := units.Watts(float64(gpu.Rapl.MinCap) * scale)
		wantHi := units.Watts(float64(gpu.Rapl.TDP) * scale)
		if cap.MinCap != wantLo || cap.MaxCap != wantHi {
			t.Errorf("node %d scaled range [%v, %v], want [%v, %v]", i, cap.MinCap, cap.MaxCap, wantLo, wantHi)
		}
	}
	// Same class, same weight regardless of scale: the weight reflects
	// the device kind, while the scaled clamp range bounds its share.
	if c.Capability(0).Weight != c.Capability(1).Weight {
		t.Errorf("scale changed class weight: %g vs %g", c.Capability(0).Weight, c.Capability(1).Weight)
	}
}

// TestHeteroSlowExcursionKeepsCapability pins the fault x classes
// interaction: a slow-plan excursion degrades the node's execution but
// must not disturb the static capability table the allocators consult.
func TestHeteroSlowExcursionKeepsCapability(t *testing.T) {
	plan, err := fault.Parse("slow:1@2x2+3")
	if err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, Config{
		SimNodes: 2, AnaNodes: 2, JobSeed: 1,
		Classes: machine.MustParseClassMap("0-1:cpu,2-3:gpu"),
		Faults:  plan,
	})
	before := make([]core.NodeCapability, 4)
	for i := range before {
		before[i] = c.Capability(i)
	}
	for sync := 1; sync <= 8; sync++ {
		c.Advance(1, sync)
		for i := range before {
			if got := c.Capability(i); got != before[i] {
				t.Fatalf("sync %d: node %d capability drifted: %+v -> %+v", sync, i, before[i], got)
			}
			if m := c.Measure(i); m.Health.Alive() && m.NodeCapability != before[i] {
				t.Fatalf("sync %d: node %d measure capability drifted", sync, i)
			}
		}
	}
}
