package workload

import (
	"testing"
	"testing/quick"

	"seesaw/internal/machine"
	"seesaw/internal/units"
)

func refSpec() Spec {
	return Spec{SimNodes: 64, AnaNodes: 64, Dim: 16, J: 1, Steps: 40, Analyses: Tasks("msd")}
}

func TestValidate(t *testing.T) {
	if err := refSpec().Validate(); err != nil {
		t.Errorf("reference spec invalid: %v", err)
	}
	bad := []Spec{
		{SimNodes: 0, AnaNodes: 1, Dim: 16, Steps: 10, Analyses: Tasks("msd")},
		{SimNodes: 1, AnaNodes: 1, Dim: 0, Steps: 10, Analyses: Tasks("msd")},
		{SimNodes: 1, AnaNodes: 1, Dim: 16, Steps: 0, Analyses: Tasks("msd")},
		{SimNodes: 1, AnaNodes: 1, Dim: 16, Steps: 10},
		{SimNodes: 1, AnaNodes: 1, Dim: 16, Steps: 10, Analyses: Tasks("bogus")},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should be invalid", i)
		}
	}
}

func TestTasksAndAll(t *testing.T) {
	ts := Tasks("rdf", "vacf")
	if len(ts) != 2 || ts[0].Name != "rdf" || ts[1].Name != "vacf" {
		t.Errorf("Tasks = %v", ts)
	}
	if got := len(AllAnalyses()); got != 5 {
		t.Errorf("AllAnalyses has %d entries, want 5", got)
	}
	if got := len(AllAnalysesForDim(16)); got != 5 {
		t.Errorf("AllAnalysesForDim(16) = %d, want 5 (includes full MSD)", got)
	}
	for _, a := range AllAnalysesForDim(36) {
		if a.Name == "msd" {
			t.Error("full MSD must be excluded at dim > 16 (memory limit)")
		}
	}
}

func TestSyncSchedule(t *testing.T) {
	s := refSpec()
	s.J = 5
	s.Steps = 20
	got := s.SyncSchedule()
	want := []int{5, 10, 15, 20}
	if len(got) != len(want) {
		t.Fatalf("schedule = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule = %v, want %v", got, want)
		}
	}
}

func TestSyncScheduleUnion(t *testing.T) {
	s := refSpec()
	s.Steps = 12
	s.Analyses = []AnalysisTask{{Name: "rdf", Interval: 3}, {Name: "vacf", Interval: 4}}
	got := s.SyncSchedule()
	want := []int{3, 4, 6, 8, 9, 12}
	if len(got) != len(want) {
		t.Fatalf("schedule = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule = %v, want %v", got, want)
		}
	}
}

func TestSimIntervalPhases(t *testing.T) {
	s := refSpec()
	s.NoSetupTransient = true
	phases := s.SimIntervalIdx(0, 1, 0)
	if len(phases) != len(simPhaseDefs) {
		t.Fatalf("got %d phases, want %d", len(phases), len(simPhaseDefs))
	}
	var total units.Seconds
	for _, p := range phases {
		if p.Nominal < 0 {
			t.Errorf("phase %s negative nominal", p.Name)
		}
		total += p.Nominal
	}
	// Reference calibration: ~4.1 s between synchronizations (Fig 4d).
	if total < 3.5 || total > 4.7 {
		t.Errorf("reference interval = %v, want ~4.1 s", total)
	}
}

func TestSimIntervalMultiStep(t *testing.T) {
	s := refSpec()
	s.NoSetupTransient = true
	one := intervalTotal(s.SimIntervalIdx(0, 1, 0))
	five := intervalTotal(s.SimIntervalIdx(0, 5, 0))
	// Five steps share a single synchronization's sync-only phases, so
	// the total is less than 5x one full step but more than 3x (the
	// per-step integrate/force/output parts repeat five times).
	if five <= one*3 || five >= one*5 {
		t.Errorf("5-step interval %v not in (3x, 5x) of one step %v", five, one)
	}
}

func TestSimIntervalEmpty(t *testing.T) {
	s := refSpec()
	if got := s.SimIntervalIdx(5, 5, 5); got != nil {
		t.Error("empty step range should produce no phases")
	}
}

func TestSetupTransient(t *testing.T) {
	s := refSpec()
	with := intervalTotal(s.SimIntervalIdx(0, 1, 0))
	without := intervalTotal(s.SimIntervalIdx(0, 1, 10)) // past the transient
	if with <= without {
		t.Errorf("first interval %v should carry setup overhead over %v", with, without)
	}
	s.NoSetupTransient = true
	disabled := intervalTotal(s.SimIntervalIdx(0, 1, 0))
	if disabled != without {
		t.Errorf("disabled transient: %v != %v", disabled, without)
	}
}

func TestAnaInterval(t *testing.T) {
	s := refSpec()
	phases := s.AnaInterval(1)
	// Housekeeping (2) + msd.
	if len(phases) != 3 {
		t.Fatalf("ana phases = %d, want 3", len(phases))
	}
	found := false
	for _, p := range phases {
		if p.Name == "msd" {
			found = true
		}
	}
	if !found {
		t.Error("msd phase missing")
	}
}

func TestAnaIntervalRespectsPerAnalysisJ(t *testing.T) {
	s := refSpec()
	s.Analyses = []AnalysisTask{{Name: "rdf", Interval: 1}, {Name: "msd", Interval: 4}}
	if got := len(s.AnaInterval(1)); got != 3 { // hk2 + rdf
		t.Errorf("step 1 phases = %d, want 3", got)
	}
	if got := len(s.AnaInterval(4)); got != 4 { // hk2 + rdf + msd
		t.Errorf("step 4 phases = %d, want 4", got)
	}
}

func TestWorkScalesWithDim(t *testing.T) {
	small := refSpec()
	small.NoSetupTransient = true
	big := small
	big.Dim = 32 // 8x the atoms
	ts := intervalTotal(small.SimIntervalIdx(0, 1, 0))
	tb := intervalTotal(big.SimIntervalIdx(0, 1, 0))
	if float64(tb) < 4*float64(ts) {
		t.Errorf("dim 32 interval %v should be much larger than dim 16's %v", tb, ts)
	}
}

func TestWorkShrinksWithNodes(t *testing.T) {
	small := refSpec()
	small.NoSetupTransient = true
	big := small
	big.SimNodes, big.AnaNodes = 512, 512
	ts := intervalTotal(small.SimIntervalIdx(0, 1, 0))
	tb := intervalTotal(big.SimIntervalIdx(0, 1, 0))
	if tb >= ts {
		t.Errorf("1024-node interval %v should be smaller than 128-node %v (strong scaling)", tb, ts)
	}
}

func TestSensitivityDilutionAtScale(t *testing.T) {
	ref := refSpec()
	big := ref
	big.SimNodes, big.AnaNodes = 512, 512
	refPhases := ref.AnaInterval(1)
	bigPhases := big.AnaInterval(1)
	for i := range refPhases {
		if bigPhases[i].Sensitivity > refPhases[i].Sensitivity {
			t.Errorf("phase %s sensitivity grew at scale: %v -> %v",
				refPhases[i].Name, refPhases[i].Sensitivity, bigPhases[i].Sensitivity)
		}
	}
}

func TestDemandScaling(t *testing.T) {
	ref := refSpec()
	ref.NoSetupTransient = true
	big := ref
	big.Dim = 48
	refForce := findPhase(t, ref.SimIntervalIdx(0, 1, 0), "force")
	bigForce := findPhase(t, big.SimIntervalIdx(0, 1, 0), "force")
	if bigForce.Demand <= refForce.Demand {
		t.Errorf("force demand should grow with dim: %v -> %v", refForce.Demand, bigForce.Demand)
	}
	if bigForce.Demand > refForce.Demand+20 {
		t.Errorf("force demand grew beyond its scale bound: %v", bigForce.Demand)
	}
}

func TestScaleSensBounds(t *testing.T) {
	f := func(dim uint8, nodes uint8) bool {
		s := Spec{
			SimNodes: int(nodes%200) + 1, AnaNodes: 1,
			Dim: int(dim%60) + 1, J: 1, Steps: 1,
			Analyses: Tasks("rdf"),
		}
		for _, p := range s.AnaInterval(1) {
			if p.Sensitivity < 0 || p.Sensitivity > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func intervalTotal(ps []machine.Phase) units.Seconds {
	var t units.Seconds
	for _, p := range ps {
		t += p.Nominal
	}
	return t
}

func findPhase(t *testing.T, ps []machine.Phase, name string) machine.Phase {
	t.Helper()
	for _, p := range ps {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("phase %q not found", name)
	return machine.Phase{}
}
