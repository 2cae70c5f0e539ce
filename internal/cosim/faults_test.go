package cosim

import (
	"context"
	"strings"
	"testing"

	"seesaw/internal/core"
	"seesaw/internal/fault"
	"seesaw/internal/machine"
	"seesaw/internal/telemetry"
	"seesaw/internal/units"
)

func mustPlan(t *testing.T, s string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFaultPlanValidatedAtRun(t *testing.T) {
	// Killing every simulation node must be rejected up front.
	_, err := Run(context.Background(), Config{Spec: smallSpec(), Constraints: smallCons(), CapMode: CapLong,
		Faults: mustPlan(t, "kill:0@1,kill:1@1,kill:2@1,kill:3@1")})
	if err == nil || !strings.Contains(err.Error(), "kills all") {
		t.Errorf("err = %v, want partition-wipeout rejection", err)
	}
}

func TestFaultKillRebalance(t *testing.T) {
	hub := telemetry.New(telemetry.Options{})
	cons := smallCons()
	ss := core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cons, Window: 1})
	res, err := Run(context.Background(), Config{Spec: smallSpec(), Policy: ss, Constraints: cons,
		CapMode: CapLong, Seed: 3, Noise: machine.DefaultNoise(),
		Faults: mustPlan(t, "kill:1@10"), Telemetry: hub})
	if err != nil {
		t.Fatal(err)
	}
	if res.AliveSim != 3 || res.AliveAna != 4 {
		t.Errorf("alive = %d/%d, want 3/4", res.AliveSim, res.AliveAna)
	}
	if len(res.FaultLog) != 1 {
		t.Fatalf("FaultLog = %v, want one kill", res.FaultLog)
	}
	tr := res.FaultLog[0]
	if tr.NodeID != 1 || tr.To != core.Dead || tr.Sync != 10 {
		t.Errorf("transition = %+v", tr)
	}
	// The dead node's budget share went back to the live nodes: live
	// final caps conserve the full budget within clamp epsilon.
	var live units.Watts
	for i, c := range res.FinalCaps {
		if i == 1 {
			continue
		}
		if c < cons.MinCap || c > cons.MaxCap {
			t.Errorf("live cap %d = %v outside range", i, c)
		}
		live += c
	}
	if !units.NearlyEqual(float64(live), float64(cons.Budget), 1e-6) {
		t.Errorf("live caps sum to %v, want budget %v", live, cons.Budget)
	}
	// Telemetry saw the kill and subsequent policy decisions.
	var sawKill, sawDecision bool
	for _, e := range hub.Events() {
		switch e.Kind() {
		case "NodeKilled":
			sawKill = true
		case "PolicyDecision":
			sawDecision = true
		}
	}
	if !sawKill || !sawDecision {
		t.Errorf("events missing: NodeKilled=%v PolicyDecision=%v", sawKill, sawDecision)
	}
}

// TestFaultReconvergence is the headline property: after a mid-run kill
// shifts the dead node's work onto the survivors, SeeSAw re-converges
// the two partitions' sync times while the static baseline stays
// imbalanced.
func TestFaultReconvergence(t *testing.T) {
	spec := smallSpec()
	spec.Steps = 60
	cons := smallCons()
	// The msd workload is analysis-dominant at the even split, so the
	// kill lands in the analysis partition: the survivors inherit 4/3 of
	// the work and the imbalance widens unless power follows it.
	run := func(p core.Policy) *Result {
		res, err := Run(context.Background(), Config{Spec: spec, Policy: p, Constraints: cons,
			CapMode: CapLong, Seed: 11, RunSeed: 12, Noise: machine.DefaultNoise(),
			Faults: mustPlan(t, "kill:7@20")})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := run(nil)
	seesaw := run(core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cons, Window: 1}))

	// Post-kill steady state: the last third of the run.
	from := 41
	staticSlack := static.SyncLog.MeanSlackFrom(from)
	seesawSlack := seesaw.SyncLog.MeanSlackFrom(from)
	if staticSlack <= 0.05 {
		t.Fatalf("static post-kill slack %v too small: kill did not unbalance the run", staticSlack)
	}
	if seesawSlack >= staticSlack*0.75 {
		t.Errorf("seesaw post-kill slack %v did not re-converge below static %v", seesawSlack, staticSlack)
	}
	// And the rebalanced run finishes the job faster.
	if seesaw.TotalTime >= static.TotalTime {
		t.Errorf("seesaw %v not faster than static %v after the kill", seesaw.TotalTime, static.TotalTime)
	}
}

func TestFaultSlowExcursion(t *testing.T) {
	spec := smallSpec()
	spec.Steps = 40
	res, err := Run(context.Background(), Config{Spec: spec, Constraints: smallCons(), CapMode: CapLong,
		Seed: 5, Faults: mustPlan(t, "slow:0@10x2+10")})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FaultLog) != 2 {
		t.Fatalf("FaultLog = %v, want degrade+recover", res.FaultLog)
	}
	if res.FaultLog[0].To != core.Degraded || res.FaultLog[0].Factor != 2 {
		t.Errorf("first transition = %+v", res.FaultLog[0])
	}
	if res.FaultLog[1].To != core.Healthy {
		t.Errorf("second transition = %+v", res.FaultLog[1])
	}
	if res.AliveSim != 4 || res.AliveAna != 4 {
		t.Errorf("alive = %d/%d, excursion must not kill", res.AliveSim, res.AliveAna)
	}
	// The excursion slows the run relative to a fault-free twin.
	clean, err := Run(context.Background(), Config{Spec: spec, Constraints: smallCons(), CapMode: CapLong, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= clean.TotalTime {
		t.Errorf("excursion run %v not slower than clean %v", res.TotalTime, clean.TotalTime)
	}
}

func TestFaultDeterminism(t *testing.T) {
	cfg := Config{Spec: smallSpec(), Constraints: smallCons(), CapMode: CapLong,
		Seed: 7, RunSeed: 8, Noise: machine.DefaultNoise(),
		Policy: core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: smallCons(), Window: 1}),
		Faults: mustPlan(t, "kill:6@5,slow:2@3x1.5+4")}
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: smallCons(), Window: 1})
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTime != b.TotalTime || a.TotalEnergy != b.TotalEnergy || len(a.FaultLog) != len(b.FaultLog) {
		t.Errorf("faulted runs diverged: %v/%v vs %v/%v", a.TotalTime, a.TotalEnergy, b.TotalTime, b.TotalEnergy)
	}
}

func TestNilPlanMatchesNoPlan(t *testing.T) {
	base := Config{Spec: smallSpec(), Constraints: smallCons(), CapMode: CapLong,
		Seed: 9, Noise: machine.DefaultNoise()}
	a, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	base.Faults = &fault.Plan{}
	b, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTime != b.TotalTime || a.TotalEnergy != b.TotalEnergy {
		t.Errorf("empty plan changed the run: %v vs %v", a.TotalTime, b.TotalTime)
	}
}

func TestDeadAnalysisNodeRebalance(t *testing.T) {
	// Killing an analysis node exercises the other partition's work
	// rescale path and the allocators' ana-side redistribution.
	cons := smallCons()
	ss := core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cons, Window: 1})
	res, err := Run(context.Background(), Config{Spec: smallSpec(), Policy: ss, Constraints: cons,
		CapMode: CapLong, Seed: 13, Noise: machine.DefaultNoise(), Faults: mustPlan(t, "kill:6@8")})
	if err != nil {
		t.Fatal(err)
	}
	if res.AliveSim != 4 || res.AliveAna != 3 {
		t.Errorf("alive = %d/%d, want 4/3", res.AliveSim, res.AliveAna)
	}
	var live units.Watts
	for i, c := range res.FinalCaps {
		if i == 6 {
			continue
		}
		live += c
	}
	if !units.NearlyEqual(float64(live), float64(cons.Budget), 1e-6) {
		t.Errorf("live caps sum to %v, want budget %v", live, cons.Budget)
	}
}

// degradedGauge reads the hub's seesaw_degraded_nodes gauge for one
// partition.
func degradedGauge(hub *telemetry.Hub, partition string) float64 {
	return hub.Registry().Gauge("seesaw_degraded_nodes", "", "partition").With(partition).Value()
}

// TestDegradedGaugeSettles: episodes that end, or are cancelled, inside
// a slow excursion take their nodes off the hub's degraded gauge, with
// no NodeRecovered event, so pooled episodes on one hub never pile up
// stale degraded nodes.
func TestDegradedGaugeSettles(t *testing.T) {
	hub := telemetry.New(telemetry.Options{})
	spec := smallSpec()
	spec.Steps = 20
	st, err := NewJobState(Config{Spec: spec, Seed: 3, Noise: machine.DefaultNoise(),
		Faults: mustPlan(t, "slow:0@5x2+100")})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := st.NewEpisode()
	if err != nil {
		t.Fatal(err)
	}
	prm := EpisodeParams{Constraints: smallCons(), CapMode: CapLong, Telemetry: hub}
	for i := 0; i < 2; i++ {
		if _, err := ep.Run(context.Background(), prm); err != nil {
			t.Fatal(err)
		}
		if g := degradedGauge(hub, "sim"); g != 0 {
			t.Fatalf("episode %d: seesaw_degraded_nodes{partition=\"sim\"} = %v after the run, want 0", i, g)
		}
	}

	// A cancelled episode settles too.
	ctx, cancel := context.WithCancel(context.Background())
	prm.Policy = cancelAfter{sync: 10, cancel: cancel}
	if _, err := ep.Run(ctx, prm); err == nil {
		t.Fatal("cancelled episode returned no error")
	}
	if g := degradedGauge(hub, "sim"); g != 0 {
		t.Errorf("cancelled episode left seesaw_degraded_nodes{partition=\"sim\"} = %v, want 0", g)
	}

	var degraded, recovered int
	for _, e := range hub.Events() {
		switch e.(type) {
		case telemetry.NodeDegraded:
			degraded++
		case telemetry.NodeRecovered:
			recovered++
		}
	}
	if degraded != 3 || recovered != 0 {
		t.Errorf("events: %d NodeDegraded, %d NodeRecovered; want 3 and 0", degraded, recovered)
	}
}

// cancelAfter is a static policy that cancels its episode's context at
// one synchronization.
type cancelAfter struct {
	sync   int
	cancel context.CancelFunc
}

func (cancelAfter) Name() string { return "cancel-after" }

func (p cancelAfter) Allocate(step int, _ []core.NodeMeasure) []units.Watts {
	if step == p.sync {
		p.cancel()
	}
	return nil
}
