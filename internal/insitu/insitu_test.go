package insitu

import (
	"bytes"
	"context"
	"regexp"
	"strings"
	"testing"

	"seesaw/internal/core"
	"seesaw/internal/machine"
	"seesaw/internal/telemetry"
	"seesaw/internal/units"
)

// tinyConfig keeps runs fast: 2+2 ranks, few steps.
func tinyConfig(policy core.Policy, analyses []string, steps int) Config {
	n := 4
	return Config{
		SimRanks:    2,
		AnaRanks:    2,
		Steps:       steps,
		SyncEvery:   1,
		Analyses:    analyses,
		Policy:      policy,
		Constraints: core.Constraints{Budget: units.Watts(110 * n), MinCap: 98, MaxCap: 215},
		Seed:        5,
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{SimRanks: 1, AnaRanks: 1, Steps: 0, Analyses: []string{"msd"}},
		{SimRanks: 1, AnaRanks: 1, Steps: 10}, // no analyses
		{SimRanks: 1, AnaRanks: 1, Steps: 10, Analyses: []string{"msd"},
			Constraints: core.Constraints{Budget: 1, MinCap: 98, MaxCap: 215}},
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestRunProducesResults(t *testing.T) {
	res, err := Run(context.Background(), tinyConfig(core.NewStatic(), []string{"rdf", "vacf"}, 20))
	if err != nil {
		t.Fatal(err)
	}
	if res.MainLoopTime <= 0 {
		t.Error("non-positive main loop time")
	}
	if res.Syncs != 20 {
		t.Errorf("syncs = %d, want 20", res.Syncs)
	}
	if res.SyncLog.Len() != 20 {
		t.Errorf("log records = %d", res.SyncLog.Len())
	}
	if res.TotalEnergy <= 0 {
		t.Error("no energy accounted")
	}
	if len(res.AnalysisResults["rdf"]) == 0 || len(res.AnalysisResults["vacf"]) == 0 {
		t.Error("analysis results missing")
	}
	// MD sanity: the simulation produced a finite total energy.
	if res.FinalSimEnergy == 0 {
		t.Error("final MD energy not recorded")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() units.Seconds {
		res, err := Run(context.Background(), tinyConfig(core.NewStatic(), []string{"msd"}, 15))
		if err != nil {
			t.Fatal(err)
		}
		return res.MainLoopTime
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical configs diverged: %v vs %v", a, b)
	}
}

func TestSeeSAwImprovesOverStaticWithMSD(t *testing.T) {
	// The headline integration check: SeeSAw must beat the static
	// baseline on the high-demand analysis.
	cons := core.Constraints{Budget: 440, MinCap: 98, MaxCap: 215}
	static, err := Run(context.Background(), tinyConfig(core.NewStatic(), []string{"msd"}, 50))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Run(context.Background(), tinyConfig(core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cons, Window: 1}), []string{"msd"}, 50))
	if err != nil {
		t.Fatal(err)
	}
	if ss.MainLoopTime >= static.MainLoopTime {
		t.Errorf("seesaw %v not faster than static %v", ss.MainLoopTime, static.MainLoopTime)
	}
	// And its steady-state slack must be small.
	if slack := ss.SyncLog.MeanSlackFrom(10); slack > 0.10 {
		t.Errorf("seesaw steady slack %.3f too large", slack)
	}
}

func TestSeeSAwGivesAnalysisMorePowerWithMSD(t *testing.T) {
	cons := core.Constraints{Budget: 440, MinCap: 98, MaxCap: 215}
	res, err := Run(context.Background(), tinyConfig(core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cons, Window: 1}), []string{"msd"}, 40))
	if err != nil {
		t.Fatal(err)
	}
	last := res.SyncLog.Records[res.SyncLog.Len()-1]
	if !(last.AnaCap > last.SimCap) {
		t.Errorf("with MSD the analysis should receive more power: sim %v ana %v (paper Section VII-B2)",
			last.SimCap, last.AnaCap)
	}
}

func TestSyncEvery(t *testing.T) {
	cfg := tinyConfig(core.NewStatic(), []string{"vacf"}, 20)
	cfg.SyncEvery = 5
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Syncs != 4 {
		t.Errorf("syncs = %d, want 4 (20 steps, j=5)", res.Syncs)
	}
}

func TestMixedAnalysisIntervals(t *testing.T) {
	cfg := tinyConfig(core.NewStatic(), []string{"rdf", "msd"}, 12)
	cfg.AnalysisIntervals = map[string]int{"msd": 4}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// rdf runs at every step; the union schedule has 12 syncs.
	if res.Syncs != 12 {
		t.Errorf("syncs = %d, want 12", res.Syncs)
	}
	// msd consumed only steps 4, 8, 12 -> its MSD series has 3 points.
	if got := len(res.AnalysisResults["msd"]); got != 3 {
		t.Errorf("msd consumed %d frames, want 3", got)
	}
}

func TestUnbalancedInitialCaps(t *testing.T) {
	cfg := tinyConfig(core.NewStatic(), []string{"vacf"}, 10)
	cfg.InitialSimCap, cfg.InitialAnaCap = 120, 100
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.SyncLog.Records[3]
	if rec.SimCap != 120 || rec.AnaCap != 100 {
		t.Errorf("initial caps not honored: %v/%v", rec.SimCap, rec.AnaCap)
	}
}

func TestUnevenPartitionSizes(t *testing.T) {
	// Two simulation ranks per analysis rank ("one or more simulation
	// processes paired with an analysis process").
	cfg := tinyConfig(core.NewStatic(), []string{"rdf"}, 8)
	cfg.SimRanks, cfg.AnaRanks = 4, 2
	cfg.Constraints = core.Constraints{Budget: 110 * 6, MinCap: 98, MaxCap: 215}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Syncs != 8 {
		t.Errorf("syncs = %d", res.Syncs)
	}
}

func TestNoiseChangesOutcome(t *testing.T) {
	quiet, err := Run(context.Background(), tinyConfig(core.NewStatic(), []string{"vacf"}, 10))
	if err != nil {
		t.Fatal(err)
	}
	noisy := tinyConfig(core.NewStatic(), []string{"vacf"}, 10)
	noisy.Noise = machine.DefaultNoise()
	res, err := Run(context.Background(), noisy)
	if err != nil {
		t.Fatal(err)
	}
	if res.MainLoopTime == quiet.MainLoopTime {
		t.Error("noise model had no effect on runtime")
	}
}

func TestAllAnalyses(t *testing.T) {
	res, err := Run(context.Background(), tinyConfig(core.NewStatic(), []string{"rdf", "msd1d", "msd2d", "msd", "vacf"}, 10))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"rdf", "msd1d", "msd2d", "msd", "vacf"} {
		if len(res.AnalysisResults[name]) == 0 {
			t.Errorf("analysis %s produced no result", name)
		}
	}
}

func TestPolicyComparisonNoHarmOnVACF(t *testing.T) {
	// At the dim=16-calibrated box the simulation saturates below its
	// 110 W cap, so no policy can speed the light-analysis workload up
	// (the paper sees gains for VACF only at larger problem sizes); the
	// invariant here is that neither adaptive policy makes it more than
	// marginally slower than the static baseline.
	cons := core.Constraints{Budget: 440, MinCap: 98, MaxCap: 215}
	static, err := Run(context.Background(), tinyConfig(core.NewStatic(), []string{"vacf"}, 60))
	if err != nil {
		t.Fatal(err)
	}
	for name, pol := range map[string]core.Policy{
		"seesaw":     core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cons, Window: 1}),
		"time-aware": core.MustNewTimeAware(core.DefaultTimeAwareConfig(cons)),
	} {
		res, err := Run(context.Background(), tinyConfig(pol, []string{"vacf"}, 60))
		if err != nil {
			t.Fatal(err)
		}
		if float64(res.MainLoopTime) > float64(static.MainLoopTime)*1.02 {
			t.Errorf("%s %v much slower than static %v on VACF", name, res.MainLoopTime, static.MainLoopTime)
		}
	}
}

// TestTelemetryStream runs the full mpi-driven workflow with a hub
// attached and verifies every instrumented layer reported: barrier
// waits from the collectives, sync/policy events from the root, cap
// writes from the RAPL domains — and that the event stream decodes.
func TestTelemetryStream(t *testing.T) {
	var buf bytes.Buffer
	hub := telemetry.New(telemetry.Options{Sink: &buf})
	cfg := tinyConfig(core.MustNewSeeSAw(core.SeeSAwConfig{
		Constraints: core.Constraints{Budget: 110 * 4, MinCap: 98, MaxCap: 215}, Window: 1,
	}), []string{"msd"}, 10)
	cfg.Telemetry = hub
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := hub.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, re := range []string{
		`seesaw_barrier_wait_seconds_count\{op="[a-z]+"\} [1-9]`,
		`seesaw_sync_total [1-9]`,
		`seesaw_cap_writes_total\{node="sim"\} [1-9]`,
		`seesaw_policy_decisions_total\{policy="seesaw",direction="[a-z-]+"\} [1-9]`,
		`seesaw_messages_total [1-9]`,
	} {
		if !regexp.MustCompile(re).MatchString(out) {
			t.Errorf("exposition missing match for %s:\n%s", re, out)
		}
	}

	kinds := map[string]int{}
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		e, err := telemetry.Decode([]byte(line))
		if err != nil {
			t.Fatalf("sink line %q: %v", line, err)
		}
		kinds[e.Kind()]++
	}
	for _, want := range []string{"CapWritten", "SyncBarrier", "PolicyDecision"} {
		if kinds[want] == 0 {
			t.Errorf("event stream missing %s (have %v)", want, kinds)
		}
	}
}
