package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"seesaw/internal/core"
	"seesaw/internal/units"
	"seesaw/internal/workload"
)

// fastOptions shrink every experiment to smoke-test size.
func fastOptions() Options {
	return Options{Steps: 25, Runs: 1, BaseSeed: 3}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig2", "table1", "fig3a", "fig3b", "fig4", "fig5",
		"fig6", "table2", "fig7", "fig8", "fig9a", "fig9b",
		"abl-ewma", "abl-window", "abl-hier", "abl-explore", "abl-oracle", "ext-sched", "ext-powershift", "abl-transient",
		"faults", "topologies", "search", "hetero"}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(IDs()), len(want))
	}
}

func TestFamiliesPartitionRegistry(t *testing.T) {
	seen := map[string]string{}
	for _, f := range Families() {
		if f.Description == "" {
			t.Errorf("family %s has no description", f.Name)
		}
		if len(f.IDs) == 0 {
			t.Errorf("family %s is empty", f.Name)
		}
		for _, id := range f.IDs {
			if prev, dup := seen[id]; dup {
				t.Errorf("experiment %s in both %s and %s", id, prev, f.Name)
			}
			seen[id] = f.Name
		}
	}
	for _, id := range IDs() {
		if _, ok := seen[id]; !ok {
			t.Errorf("experiment %s missing from all families", id)
		}
	}
	if len(seen) != len(IDs()) {
		t.Errorf("families list %d experiments, registry has %d", len(seen), len(IDs()))
	}
}

func TestGet(t *testing.T) {
	if _, ok := Get("fig1"); !ok {
		t.Error("fig1 not found")
	}
	if _, ok := Get("nope"); ok {
		t.Error("bogus id found")
	}
	if err := UnknownExperimentError("nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Error("unknown experiment error unhelpful")
	}
}

func TestAllExperimentsRun(t *testing.T) {
	// Every registered experiment must run cleanly at smoke size and
	// produce non-trivial output.
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(context.Background(), fastOptions(), &buf); err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if buf.Len() < 50 {
				t.Errorf("%s produced only %d bytes of output", e.ID, buf.Len())
			}
		})
	}
}

func TestImprovementPct(t *testing.T) {
	if got := improvementPct(100, 90); got != 10 {
		t.Errorf("improvement = %v, want 10", got)
	}
	if got := improvementPct(100, 110); got != -10 {
		t.Errorf("improvement = %v, want -10", got)
	}
	if improvementPct(0, 5) != 0 {
		t.Error("zero base should give 0")
	}
}

func TestMedian(t *testing.T) {
	if median(nil) != 0 {
		t.Error("empty median")
	}
	if median([]float64{3, 1, 2}) != 2 {
		t.Error("odd median")
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("even median")
	}
}

func TestSpecHelpers(t *testing.T) {
	s := spec128(16, 1, 100, nil)
	if s.SimNodes != 64 || s.AnaNodes != 64 {
		t.Errorf("spec128 nodes = %d/%d", s.SimNodes, s.AnaNodes)
	}
	s2 := specAt(1024, 48, 2, 200, nil)
	if s2.SimNodes != 512 || s2.AnaNodes != 512 || s2.Dim != 48 || s2.J != 2 {
		t.Errorf("specAt wrong: %+v", s2)
	}
	// Odd node count still sums correctly.
	s3 := specAt(7, 16, 1, 10, nil)
	if s3.SimNodes+s3.AnaNodes != 7 {
		t.Error("specAt lost a node")
	}
}

func TestMedianImprovementPairsJobs(t *testing.T) {
	// The improvement of a policy against itself must be ~0: paired
	// seeds mean the static baseline shares the job's placement.
	imp, _, err := medianImprovement(context.Background(), cell{
		spec:   specAt(8, 16, 1, 30, testTasks()),
		policy: "static",
	}, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if imp != 0 {
		t.Errorf("static vs static improvement = %v, want exactly 0", imp)
	}
}

func TestRunCellDefaults(t *testing.T) {
	res, err := runCell(context.Background(), cell{spec: specAt(8, 16, 1, 20, testTasks()), policy: "seesaw", jobSeed: 1, runSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 {
		t.Error("no runtime")
	}
	// Default cap mode applies a 110 W cap.
	rec := res.SyncLog.Records[0]
	if rec.SimCap != units.Watts(110) {
		t.Errorf("default cap = %v, want 110", rec.SimCap)
	}
}

func testTasks() []workload.AnalysisTask {
	return workload.Tasks("msd")
}

func TestConstraintsForBudget(t *testing.T) {
	c := constraintsFor(128, 110)
	if c.Budget != 14080 {
		t.Errorf("budget = %v", c.Budget)
	}
	if err := c.Validate(128); err != nil {
		t.Errorf("constraints invalid: %v", err)
	}
	if _ = core.EvenSplit(c, 128); core.EvenSplit(c, 128) != 110 {
		t.Error("even split wrong")
	}
}

func TestRunSelfTest(t *testing.T) {
	var buf bytes.Buffer
	ok, err := RunSelfTest(context.Background(), Options{BaseSeed: 1}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("selftest failed:\n%s", buf.String())
	}
	if c := strings.Count(buf.String(), "PASS"); c != 5 {
		t.Errorf("expected 5 PASS lines, got %d:\n%s", c, buf.String())
	}
}
