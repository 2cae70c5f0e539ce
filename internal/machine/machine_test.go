package machine

import (
	"math"
	"testing"
	"testing/quick"

	"seesaw/internal/units"
)

// quietNode returns a node with no noise for deterministic assertions.
func quietNode(t *testing.T, id int) *Node {
	t.Helper()
	return DefaultNode(id, NoiseModel{}, 1)
}

// computePhase is a strongly power-sensitive phase.
func computePhase(nominal units.Seconds) Phase {
	return Phase{Name: "compute", Nominal: nominal, Demand: 130, Saturation: 140, Sensitivity: 0.95}
}

// commPhase is power-insensitive.
func commPhase(nominal units.Seconds) Phase {
	return Phase{Name: "comm", Nominal: nominal, Demand: 105, Saturation: 110, Sensitivity: 0.10}
}

func TestRunUncapped(t *testing.T) {
	n := quietNode(t, 0)
	exec := n.Run(computePhase(2), NoiseModel{})
	if !units.NearlyEqual(float64(exec.Duration), 2, 1e-9) {
		t.Errorf("uncapped duration = %v, want nominal 2", exec.Duration)
	}
	if exec.Power != 130 {
		t.Errorf("uncapped power = %v, want demand 130", exec.Power)
	}
	if exec.Throttled {
		t.Error("uncapped run should not be throttled")
	}
}

func TestRunThrottled(t *testing.T) {
	n := quietNode(t, 0)
	n.RAPL().SetLongCap(110)
	n.Idle(0.02) // actuate the cap
	exec := n.Run(computePhase(2), NoiseModel{})
	if !exec.Throttled {
		t.Error("capped compute phase should be throttled")
	}
	if exec.Power != 110 {
		t.Errorf("throttled power = %v, want 110", exec.Power)
	}
	if exec.Duration <= 2 {
		t.Errorf("throttled duration %v should exceed nominal", exec.Duration)
	}
}

func TestDurationMonotoneInPower(t *testing.T) {
	// More allowed power never makes a phase slower.
	n := quietNode(t, 0)
	ph := computePhase(1)
	prev := units.Seconds(1e18)
	for cap := units.Watts(98); cap <= 215; cap += 5 {
		d := n.PredictDuration(ph, cap)
		if d > prev+1e-12 {
			t.Fatalf("duration increased with power at %v: %v > %v", cap, d, prev)
		}
		prev = d
	}
}

func TestSaturationFlat(t *testing.T) {
	n := quietNode(t, 0)
	ph := computePhase(1)
	d140 := n.PredictDuration(ph, 140)
	d215 := n.PredictDuration(ph, 215)
	if !units.NearlyEqual(float64(d140), float64(d215), 1e-12) {
		t.Errorf("beyond saturation durations differ: %v vs %v", d140, d215)
	}
}

func TestCommPhaseInsensitive(t *testing.T) {
	n := quietNode(t, 0)
	ph := commPhase(1)
	d98 := n.PredictDuration(ph, 98)
	d215 := n.PredictDuration(ph, 215)
	// At most the 10% sensitive share can change.
	if ratio := float64(d98) / float64(d215); ratio > 1.12 {
		t.Errorf("comm phase slowed %vx under deep cap; should be nearly flat", ratio)
	}
}

func TestIdle(t *testing.T) {
	n := quietNode(t, 0)
	exec := n.Idle(3)
	if exec.Duration != 3 {
		t.Errorf("idle duration = %v", exec.Duration)
	}
	if exec.Power != DefaultModel().IdlePower {
		t.Errorf("idle power = %v, want %v", exec.Power, DefaultModel().IdlePower)
	}
	if n.IdleTime() != 3 {
		t.Errorf("IdleTime = %v", n.IdleTime())
	}
}

func TestIdleUnderDeepCap(t *testing.T) {
	n := quietNode(t, 0)
	n.RAPL().SetLongCap(98)
	n.Idle(0.02)
	exec := n.Idle(1)
	if exec.Power > 98 {
		t.Errorf("idle power %v exceeds the 98 W cap", exec.Power)
	}
}

func TestIdlePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative idle should panic")
		}
	}()
	quietNode(t, 0).Idle(-1)
}

func TestZeroNominalPhase(t *testing.T) {
	n := quietNode(t, 0)
	exec := n.Run(computePhase(0), NoiseModel{})
	if exec.Duration != 0 || exec.Power != 0 {
		t.Errorf("zero-nominal phase executed: %+v", exec)
	}
}

func TestPhaseValidation(t *testing.T) {
	m := DefaultModel()
	bad := []Phase{
		{Name: "neg", Nominal: -1, Demand: 100, Saturation: 120, Sensitivity: 0.5},
		{Name: "nodemand", Nominal: 1, Demand: 0, Saturation: 120, Sensitivity: 0.5},
		{Name: "lowsat", Nominal: 1, Demand: 100, Saturation: 50, Sensitivity: 0.5},
		{Name: "badsens", Nominal: 1, Demand: 100, Saturation: 120, Sensitivity: 1.5},
	}
	for _, ph := range bad {
		if err := ph.Validate(m); err == nil {
			t.Errorf("phase %q should fail validation", ph.Name)
		}
	}
	good := computePhase(1)
	if err := good.Validate(m); err != nil {
		t.Errorf("valid phase rejected: %v", err)
	}
}

func TestRunPanicsOnInvalidPhase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Run with invalid phase should panic")
		}
	}()
	quietNode(t, 0).Run(Phase{Name: "bad", Nominal: 1, Demand: -1, Saturation: 120}, NoiseModel{})
}

func TestNoiseDeterminism(t *testing.T) {
	noise := DefaultNoise()
	mk := func() []units.Seconds {
		n := DefaultNodeWithSeeds(3, noise, 11, 13)
		n.RAPL().SetLongCap(110)
		n.Idle(0.02)
		var ds []units.Seconds
		for i := 0; i < 20; i++ {
			ds = append(ds, n.Run(computePhase(1), noise).Duration)
		}
		return ds
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seeds diverged at phase %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestJobVsRunSeeds(t *testing.T) {
	noise := DefaultNoise()
	// Same job seed: same skew; different run seed: different jitter.
	a := DefaultNodeWithSeeds(0, noise, 5, 100)
	b := DefaultNodeWithSeeds(0, noise, 5, 200)
	if a.Skew() != b.Skew() {
		t.Error("same job seed should give identical skew")
	}
	c := DefaultNodeWithSeeds(0, noise, 6, 100)
	if a.Skew() == c.Skew() {
		t.Error("different job seeds should give different skew")
	}
}

func TestCapAmplifiesNoise(t *testing.T) {
	noise := NoiseModel{JitterSigma: 0.01}
	spread := func(capped bool) float64 {
		n := DefaultNodeWithSeeds(1, noise, 21, 22)
		if capped {
			n.RAPL().SetLongCap(110)
			n.Idle(0.02)
		}
		var lo, hi float64
		for i := 0; i < 200; i++ {
			d := float64(n.Run(computePhase(0.01), noise).Duration)
			if i == 0 || d < lo {
				lo = d
			}
			if i == 0 || d > hi {
				hi = d
			}
		}
		return (hi - lo) / lo
	}
	if su, sc := spread(false), spread(true); sc <= su {
		t.Errorf("capped jitter spread %v should exceed uncapped %v", sc, su)
	}
}

func TestBusyTimeAccumulates(t *testing.T) {
	n := quietNode(t, 0)
	n.Run(computePhase(1), NoiseModel{})
	n.Run(computePhase(2), NoiseModel{})
	if got := n.BusyTime(); !units.NearlyEqual(float64(got), 3, 1e-9) {
		t.Errorf("BusyTime = %v, want 3", got)
	}
}

func TestPredictDurationMatchesQuietRun(t *testing.T) {
	f := func(rawCap float64) bool {
		cap := units.Watts(98 + mod(rawCap, 117))
		n := DefaultNode(0, NoiseModel{}, 1)
		ph := computePhase(1)
		pred := n.PredictDuration(ph, cap)
		n.RAPL().SetLongCap(cap)
		n.Idle(0.02)
		got := n.Run(ph, NoiseModel{}).Duration
		return units.NearlyEqual(float64(pred), float64(got), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func mod(x, m float64) float64 {
	v := math.Mod(math.Abs(x), m)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func TestSlowFactorExcursion(t *testing.T) {
	n := quietNode(t, 0)
	base := n.Run(computePhase(2), NoiseModel{}).Duration

	n.SetSlowFactor(2)
	if n.SlowFactor() != 2 {
		t.Errorf("SlowFactor() = %g after SetSlowFactor(2)", n.SlowFactor())
	}
	slow := n.Run(computePhase(2), NoiseModel{}).Duration
	if !units.NearlyEqual(float64(slow), 2*float64(base), 1e-9) {
		t.Errorf("2x excursion duration = %v, want %v", slow, 2*base)
	}

	// Recovery restores the nominal duration exactly.
	n.SetSlowFactor(1)
	after := n.Run(computePhase(2), NoiseModel{}).Duration
	if !units.NearlyEqual(float64(after), float64(base), 1e-9) {
		t.Errorf("post-recovery duration = %v, want %v", after, base)
	}
}

func TestSetSlowFactorPanicsOnNonPositive(t *testing.T) {
	n := quietNode(t, 0)
	for _, f := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetSlowFactor(%g) did not panic", f)
				}
			}()
			n.SetSlowFactor(f)
		}()
	}
}

// TestNoiseTraceReplay pins the replay primitive the noise memo rests
// on: a node fed its own JitterTrace reproduces a live node's
// executions bit for bit, whether the trace is installed whole or one
// window per interval, a windowed node has read each window whole
// when its interval ends, and reading past an installed window panics.
func TestNoiseTraceReplay(t *testing.T) {
	noise := DefaultNoise()
	const id, jobSeed, runSeed = 2, 7, 9
	// Throttled and unthrottled phases: the sigma differs, the draws do
	// not. Every execution takes two draws (jitter, power ripple).
	phases := []Phase{computePhase(1), commPhase(0.5), computePhase(0.25)}
	const intervals = 6
	draws := 2 * len(phases) * intervals

	run := func(n *Node, perInterval []float64) []Execution {
		n.RAPL().SetLongCap(110)
		n.Idle(0.02)
		var out []Execution
		for k := 0; k < intervals; k++ {
			if perInterval != nil {
				o, c := k*2*len(phases), 2*len(phases)
				n.SetNoiseTrace(perInterval[o : o+c : o+c])
			}
			for _, ph := range phases {
				out = append(out, n.Run(ph, noise))
			}
			if left := n.NoiseTraceUnread(); perInterval != nil && left != 0 {
				t.Fatalf("interval %d left %d draws unread", k, left)
			}
		}
		return out
	}
	live := run(DefaultNodeWithSeeds(id, noise, jobSeed, runSeed), nil)

	trace := JitterTrace(runSeed, id, draws)
	whole := DefaultNodeWithSeeds(id, noise, jobSeed, runSeed)
	whole.SetNoiseTrace(trace)
	windowed := DefaultNodeWithSeeds(id, noise, jobSeed, runSeed)
	for name, got := range map[string][]Execution{
		"whole":    run(whole, nil),
		"windowed": run(windowed, trace),
	} {
		for i := range live {
			if got[i] != live[i] {
				t.Fatalf("%s replay diverges from live draws at execution %d: %+v vs %+v", name, i, got[i], live[i])
			}
		}
	}

	// A reset node replays its whole trace again from the start.
	whole.Reset()
	again := run(whole, nil)
	for i := range live {
		if again[i] != live[i] {
			t.Fatalf("replay after Reset diverges at execution %d: %+v vs %+v", i, again[i], live[i])
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("reading past the installed window did not panic")
		}
	}()
	n := DefaultNodeWithSeeds(id, noise, jobSeed, runSeed)
	// One execution's worth of draws, then a second execution.
	n.SetNoiseTrace(trace[0:2:2])
	n.Run(phases[0], noise)
	n.Run(phases[0], noise)
}
