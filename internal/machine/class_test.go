package machine

import (
	"reflect"
	"strings"
	"testing"
)

func TestPresetClassesValid(t *testing.T) {
	for _, name := range PresetNames() {
		c, ok := PresetClass(name)
		if !ok {
			t.Fatalf("PresetClass(%q) missing", name)
		}
		if c.Name != name {
			t.Errorf("preset %q carries name %q", name, c.Name)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
		if c.Rapl.MinCap >= c.Rapl.TDP {
			t.Errorf("preset %q clamp range [%v, %v] inverted", name, c.Rapl.MinCap, c.Rapl.TDP)
		}
	}
	if _, ok := PresetClass("bogus"); ok {
		t.Error("bogus preset resolved")
	}
}

func TestClassWeightOrdering(t *testing.T) {
	cpu, _ := PresetClass("cpu")
	gpu, _ := PresetClass("gpu")
	lp, _ := PresetClass("lowpower")
	if w := cpu.Weight(); w != 1 {
		t.Errorf("cpu weight = %g, want exactly 1 (it is the reference)", w)
	}
	if wg, wl := gpu.Weight(), lp.Weight(); !(wl < 1 && 1 < wg) {
		t.Errorf("weight ordering lowpower(%g) < cpu(1) < gpu(%g) violated", wl, wg)
	}
}

func TestDefaultClassIsDegenerate(t *testing.T) {
	// The default class must be the homogeneous cluster's exact node:
	// same model, same RAPL config, so the one-class case is
	// byte-identical to the legacy path.
	c := DefaultClass()
	if c.Model != DefaultModel() {
		t.Error("default class model differs from DefaultModel")
	}
	// A phase run through a default-class node matches a plain node.
	ph := Phase{Name: "p", Nominal: 1, Demand: 135, Saturation: 140, Sensitivity: 0.95}
	a := c.NewNode(0, NoiseModel{}, 1)
	b := NewNode(0, c.Rapl, DefaultModel(), NoiseModel{}, 1)
	if da, db := a.PredictDuration(ph, 110), b.PredictDuration(ph, 110); da != db {
		t.Errorf("default-class node predicts %v, plain node %v", da, db)
	}
}

func TestClassAdaptChangesSpeedAndEnvelope(t *testing.T) {
	ph := Phase{Name: "p", Nominal: 1, Demand: 135, Saturation: 140, Sensitivity: 0.95}
	gpu, _ := PresetClass("gpu")
	cpuNode := DefaultClass().NewNode(0, NoiseModel{}, 1)
	gpuNode := gpu.NewNode(0, NoiseModel{}, 1)
	// Unconstrained (own TDP), the GPU is faster than the CPU.
	if dg, dc := gpuNode.PredictDuration(ph, gpu.Rapl.TDP), cpuNode.PredictDuration(ph, 215); dg >= dc {
		t.Errorf("gpu at TDP (%v) not faster than cpu at TDP (%v)", dg, dc)
	}
	// Starved at a CPU-sized cap, the GPU is slower: its envelope is
	// stretched so 110 W sits close to its floor.
	if dg, dc := gpuNode.PredictDuration(ph, 110), cpuNode.PredictDuration(ph, 110); dg <= dc {
		t.Errorf("gpu at 110 W (%v) not slower than cpu at 110 W (%v)", dg, dc)
	}
}

func TestClassNoiseGating(t *testing.T) {
	gpu, _ := PresetClass("gpu")
	// Deterministic run: class noise must NOT activate.
	n := gpu.NewNode(0, NoiseModel{}, 7)
	ph := Phase{Name: "p", Nominal: 1, Demand: 135, Saturation: 140, Sensitivity: 0.95}
	if d1, d2 := n.PredictDuration(ph, 200), gpu.NewNode(0, NoiseModel{}, 8).PredictDuration(ph, 200); d1 != d2 {
		t.Errorf("zero-noise gpu nodes differ across seeds: %v vs %v", d1, d2)
	}
	// Noisy run: the class profile overrides the run-level one.
	a := gpu.NewNode(0, DefaultNoise(), 7)
	b := NewNode(0, gpu.Rapl, gpu.Model, gpu.Noise, 7)
	if da, db := a.PredictDuration(ph, 200), b.PredictDuration(ph, 200); da != db {
		t.Errorf("class-noise override mismatch: %v vs %v", da, db)
	}
}

func TestParseClassMap(t *testing.T) {
	m, err := ParseClassMap("0-511:cpu, 512-575:gpu,600:lowpower")
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[int]string{0: "cpu", 511: "cpu", 512: "gpu", 575: "gpu", 600: "lowpower", 576: "", 601: ""} {
		if got := m.ClassAt(id); got != want {
			t.Errorf("ClassAt(%d) = %q, want %q", id, got, want)
		}
	}
	if got := m.Classes(); len(got) != 3 || got[0] != "cpu" || got[1] != "gpu" || got[2] != "lowpower" {
		t.Errorf("Classes() = %v", got)
	}
	// String round-trips through the parser.
	rt, err := ParseClassMap(m.String())
	if err != nil {
		t.Fatalf("round-trip parse: %v", err)
	}
	if rt.String() != m.String() {
		t.Errorf("round trip %q != %q", rt.String(), m.String())
	}
}

// FuzzParseClassMap checks the class-map grammar: no input panics
// ParseClassMap, and every map that parses prints (String) to text that
// parses back to a deep-equal map.
func FuzzParseClassMap(f *testing.F) {
	for _, s := range []string{
		"0-511:cpu,512-575:gpu",
		"0-1:cpu,2-3:gpu,4-5:cpu,6-7:gpu",
		"0-3:cpu,4-7:gpu",
		"0-511:cpu, 512-575:gpu,600:lowpower",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseClassMap(s)
		if err != nil {
			return
		}
		back, err := ParseClassMap(m.String())
		if err != nil {
			t.Fatalf("ParseClassMap(%q).String() = %q does not parse: %v", s, m.String(), err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("ParseClassMap(%q) = %+v, but its String %q parses to %+v", s, m, m.String(), back)
		}
	})
}

func TestParseClassMapErrors(t *testing.T) {
	for _, bad := range []string{
		"0-3",             // no class
		"0-3:",            // empty class
		"x-3:cpu",         // bad lo
		"0-y:cpu",         // bad hi
		"3-0:cpu",         // inverted
		"-1:cpu",          // negative (parses as range with empty lo)
		"0-3:cpu,,4:x",    // empty token
		"0-3:cpu,2:gpu",   // overlap
		"0-3:cpu,3-5:gpu", // overlap at the boundary
	} {
		if _, err := ParseClassMap(bad); err == nil {
			t.Errorf("ParseClassMap(%q) accepted", bad)
		}
	}
	if m, err := ParseClassMap("  "); err != nil || !m.Empty() {
		t.Errorf("blank map: %v, %v", m, err)
	}
}

func TestClassMapValidate(t *testing.T) {
	m := MustParseClassMap("0-3:cpu,4-7:gpu")
	resolve := func(name string) bool { _, ok := PresetClass(name); return ok }
	if err := m.Validate(8, resolve, PresetNames()); err != nil {
		t.Errorf("valid map rejected: %v", err)
	}
	if err := m.Validate(6, resolve, PresetNames()); err == nil {
		t.Error("map exceeding cluster size accepted")
	}
	bad := MustParseClassMap("0-3:warp")
	err := bad.Validate(8, resolve, PresetNames())
	if err == nil {
		t.Fatal("unknown class accepted")
	}
	if !strings.Contains(err.Error(), "warp") || !strings.Contains(err.Error(), "gpu") {
		t.Errorf("unhelpful unknown-class error: %v", err)
	}
	var nilMap *ClassMap
	if !nilMap.Empty() || nilMap.ClassAt(3) != "" || nilMap.String() != "" {
		t.Error("nil map not inert")
	}
	if err := nilMap.Validate(4, nil, nil); err != nil {
		t.Errorf("nil map validate: %v", err)
	}
}

func TestClassValidateRejectsBroken(t *testing.T) {
	c := DefaultClass()
	c.Rapl.MinCap = 0
	if err := c.Validate(); err == nil {
		t.Error("class with broken rapl accepted")
	}
	c = DefaultClass()
	c.Model.SpeedFactor = -1
	if err := c.Validate(); err == nil {
		t.Error("negative speed factor accepted")
	}
}

func TestWeightIsSpeedPerWattSignal(t *testing.T) {
	// The weight must track PredictDuration: a class twice as fast on
	// the probe at its own TDP gets about twice the weight.
	gpu, _ := PresetClass("gpu")
	w := gpu.Weight()
	probe := Phase{Name: "weight-probe", Nominal: 1, Demand: 135, Saturation: 140, Sensitivity: 0.95}
	cn := NewNode(0, DefaultClass().Rapl, DefaultModel(), NoiseModel{}, 1)
	gn := NewNode(0, gpu.Rapl, gpu.Model, NoiseModel{}, 1)
	ratio := float64(cn.PredictDuration(probe, DefaultClass().Rapl.TDP)) / float64(gn.PredictDuration(probe, gpu.Rapl.TDP))
	if diff := w/ratio - 1; diff > 0.01 || diff < -0.01 {
		t.Errorf("weight %g does not track duration ratio %g", w, ratio)
	}
}
