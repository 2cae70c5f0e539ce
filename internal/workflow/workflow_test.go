package workflow

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"seesaw/internal/core"
	"seesaw/internal/fault"
	"seesaw/internal/telemetry"
	"seesaw/internal/units"
)

func TestParsePlacement(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Placement
	}{
		{"", SpaceShared},
		{"space-shared", SpaceShared},
		{"time-shared", TimeShared},
		{"in-transit", InTransit},
	} {
		got, err := ParsePlacement(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePlacement(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParsePlacement("bogus"); err == nil || !strings.Contains(err.Error(), "space-shared") {
		t.Errorf("ParsePlacement(bogus) err = %v; want listing valid values", err)
	}
}

// twoStage returns a minimal valid graph for mutation in error tests.
func twoStage() Graph {
	return Graph{
		Name: "t",
		Stages: []Stage{
			{Name: "sim", Role: core.RoleSimulation, Ranks: 2},
			{Name: "ana", Role: core.RoleAnalysis, Ranks: 2},
		},
		Edges: []Edge{{From: "sim", To: "ana", BytesPerRank: 64}},
	}
}

func TestGraphValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Graph)
		want   string
	}{
		{"no stages", func(g *Graph) { g.Stages = nil }, "no stages"},
		{"unnamed", func(g *Graph) { g.Stages[0].Name = "" }, "has no name"},
		{"duplicate", func(g *Graph) { g.Stages[1].Name = "sim" }, "duplicate stage"},
		{"zero ranks", func(g *Graph) { g.Stages[0].Ranks = 0 }, "positive ranks"},
		{"host on space-shared", func(g *Graph) { g.Stages[1].Host = "sim" }, "time-shared stages only"},
		{"time-shared without host", func(g *Graph) { g.Stages[1].Placement = TimeShared }, "needs a host"},
		{"unknown host", func(g *Graph) {
			g.Stages[1].Placement = TimeShared
			g.Stages[1].Host = "nope"
		}, "unknown host"},
		{"unequal host ranks", func(g *Graph) {
			g.Stages[1].Placement = TimeShared
			g.Stages[1].Host = "sim"
			g.Stages[1].Ranks = 3
		}, "co-residency is pairwise"},
		{"no analysis stage", func(g *Graph) { g.Stages[1].Role = core.RoleSimulation }, "at least one simulation-role and one analysis-role"},
		{"unknown edge stage", func(g *Graph) { g.Edges[0].To = "nope" }, "unknown stage"},
		{"self loop", func(g *Graph) { g.Edges[0].To = "sim" }, "self-loop"},
		{"negative bytes", func(g *Graph) { g.Edges[0].BytesPerRank = -1 }, "negative bytes"},
		{"cycle", func(g *Graph) { g.Edges = append(g.Edges, Edge{From: "ana", To: "sim"}) }, "dependency cycle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := twoStage()
			tc.mutate(&g)
			err := g.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() err = %v; want containing %q", err, tc.want)
			}
		})
	}
}

func TestCompileLayoutAndRouting(t *testing.T) {
	topo, err := Build("dag", Params{Nodes: 16, Dim: 8, J: 2, Steps: 8})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(topo.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plan.NWorld, 16; got != want {
		t.Fatalf("NWorld = %d, want %d", got, want)
	}
	if plan.SimNodes != 8 || plan.AnaNodes != 8 {
		t.Fatalf("partitions = %d/%d, want 8/8", plan.SimNodes, plan.AnaNodes)
	}
	wantNames := []string{"sim", "filter", "rdf", "msd1d", "reduce"}
	if got := plan.StageNames(); fmt.Sprint(got) != fmt.Sprint(wantNames) {
		t.Fatalf("StageNames = %v, want %v", got, wantNames)
	}
	if got := plan.StageOf(0); got != "sim" {
		t.Errorf("StageOf(0) = %q", got)
	}
	if got := plan.StageOf(9); got != "filter" {
		t.Errorf("StageOf(9) = %q", got)
	}
	// Fan-in: the reduce stage has two inbound edges, one per analysis.
	reduce := plan.byName["reduce"]
	if len(reduce.ins) != 2 {
		t.Fatalf("reduce has %d inbound edges, want 2", len(reduce.ins))
	}
	// sim (8 ranks) -> filter (2 ranks): each filter rank gets 4 sources.
	filter := plan.byName["filter"]
	for c, srcs := range filter.ins[0].sources {
		if len(srcs) != 4 {
			t.Errorf("filter rank %d has %d sources, want 4", c, len(srcs))
		}
	}
	// Edge tags follow declaration order from tagBase.
	if got := filter.ins[0].tag; got != tagBase {
		t.Errorf("sim->filter tag = %d, want %d", got, tagBase)
	}
}

func TestCompileTimeSharedScales(t *testing.T) {
	topo, err := Build("time-shared", Params{Nodes: 4, Dim: 8, J: 1, Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(topo.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NWorld != 8 || plan.PhysicalNodes != 4 {
		t.Fatalf("NWorld=%d PhysicalNodes=%d, want 8/4", plan.NWorld, plan.PhysicalNodes)
	}
	if plan.Scales == nil {
		t.Fatal("time-shared plan has nil Scales")
	}
	for i, s := range plan.Scales {
		if s != 0.5 {
			t.Errorf("scale[%d] = %g, want 0.5", i, s)
		}
	}
}

func TestBuildUnknownTopology(t *testing.T) {
	if _, err := Build("ring", Params{Nodes: 8, Dim: 8}); err == nil || !strings.Contains(err.Error(), "dag") {
		t.Errorf("Build(ring) err = %v; want listing valid topologies", err)
	}
	if _, err := Build("dag", Params{Nodes: 12, Dim: 8}); err == nil || !strings.Contains(err.Error(), "divisible by 8") {
		t.Errorf("Build(dag, 12 nodes) err = %v", err)
	}
}

// topologyConfig builds a runnable Config for one named topology on a
// small machine, with the cap range adapted to the topology's power
// domains.
func topologyConfig(t testing.TB, name string, nodes, steps, j int, policy func(core.Constraints) core.Policy) Config {
	topo, err := Build(name, Params{Nodes: nodes, Dim: 8, J: j, Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	cons := topo.ScaleCaps(core.Constraints{
		Budget: units.Watts(110 * topo.PhysicalNodes),
		MinCap: 98,
		MaxCap: 215,
	})
	return Config{
		Graph:       topo.Graph,
		Steps:       steps,
		SyncEvery:   j,
		Policy:      policy(cons),
		Constraints: cons,
		Seed:        11,
	}
}

func seesawPolicy(cons core.Constraints) core.Policy {
	return core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cons, Window: 2})
}

func staticPolicy(core.Constraints) core.Policy { return core.NewStatic() }

// renderResult serializes the determinism-relevant observables at full
// float64 precision.
func renderResult(res *Result) string {
	hf := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "time %s energy %s overhead %s syncs %d xferS %s xferB %d\n",
		hf(float64(res.MainLoopTime)), hf(float64(res.TotalEnergy)),
		hf(float64(res.OverheadTotal)), res.Syncs,
		hf(float64(res.TransferSeconds)), res.TransferBytes)
	for _, r := range res.SyncLog.Records {
		fmt.Fprintf(&b, "sync %d %s %s %s %s\n", r.Step,
			hf(float64(r.SimTime)), hf(float64(r.AnaTime)),
			hf(float64(r.SimCap)), hf(float64(r.AnaCap)))
	}
	return b.String()
}

// TestRunDeterminism pins every topology to bit-identical repeat runs —
// the property the campaign sharding and the golden tests build on.
func TestRunDeterminism(t *testing.T) {
	for _, name := range TopologyNames() {
		t.Run(name, func(t *testing.T) {
			run := func() string {
				cfg := topologyConfig(t, name, 16, 8, 2, seesawPolicy)
				res, err := Run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				return renderResult(res)
			}
			a, b := run(), run()
			if a != b {
				t.Fatalf("repeat runs differ:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// TestInTransitTransferAccounting checks that the staging hop shows up
// on the virtual clock and in the volume accounting — and only there.
func TestInTransitTransferAccounting(t *testing.T) {
	res := map[string]*Result{}
	for _, name := range []string{"space-shared", "in-transit"} {
		r, err := Run(context.Background(), topologyConfig(t, name, 8, 8, 2, staticPolicy))
		if err != nil {
			t.Fatal(err)
		}
		res[name] = r
	}
	if res["space-shared"].TransferSeconds != 0 {
		t.Errorf("space-shared TransferSeconds = %v, want 0", res["space-shared"].TransferSeconds)
	}
	if res["in-transit"].TransferSeconds <= 0 {
		t.Errorf("in-transit TransferSeconds = %v, want > 0", res["in-transit"].TransferSeconds)
	}
	if res["in-transit"].TransferBytes != res["space-shared"].TransferBytes {
		t.Errorf("transfer volume changed with placement: %d vs %d",
			res["in-transit"].TransferBytes, res["space-shared"].TransferBytes)
	}
	if res["in-transit"].MainLoopTime <= res["space-shared"].MainLoopTime {
		t.Errorf("staging hop did not lengthen the run: in-transit %v vs space-shared %v",
			res["in-transit"].MainLoopTime, res["space-shared"].MainLoopTime)
	}
}

// TestInTransitKillUnwinds kills an analysis node mid-run under the
// in-transit topology: the fault must poison the whole job — including
// producers inside staged transfer phases and consumers blocked on
// them — and surface as a KilledError.
func TestInTransitKillUnwinds(t *testing.T) {
	cfg := topologyConfig(t, "in-transit", 8, 12, 2, staticPolicy)
	plan, err := fault.Parse("kill:6@3")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	_, err = Run(context.Background(), cfg)
	var killed *fault.KilledError
	if !errors.As(err, &killed) {
		t.Fatalf("Run err = %v, want *fault.KilledError", err)
	}
	if killed.Node != 6 || killed.Sync != 3 {
		t.Errorf("killed = node %d sync %d, want node 6 sync 3", killed.Node, killed.Sync)
	}
}

// TestDAGFanInRaceSmoke drives the full fan-out/fan-in pipeline at 1024
// ranks so the race detector sees the engine's cross-stage send/recv
// and aggregation paths under real contention (make check runs the
// package under -race).
func TestDAGFanInRaceSmoke(t *testing.T) {
	cfg := topologyConfig(t, "dag", 1024, 2, 1, staticPolicy)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Syncs != 2 {
		t.Errorf("Syncs = %d, want 2", res.Syncs)
	}
	if res.StageBusy["reduce"] <= 0 {
		t.Errorf("reduce stage recorded no busy time")
	}
}

// BenchmarkTopologies measures workflow-engine wall time per job across
// machine sizes and placements, to compare the engine's scheduling
// overhead with the in-situ driver's (BenchmarkInsituScale).
func BenchmarkTopologies(b *testing.B) {
	for _, nodes := range []int{256, 1024} {
		for _, name := range []string{"space-shared", "time-shared", "in-transit"} {
			b.Run(fmt.Sprintf("nodes=%d/%s", nodes, name), func(b *testing.B) {
				cfg := topologyConfig(b, name, nodes, 4, 2, staticPolicy)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Run(context.Background(), cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestDegradedGaugeSettles: a job that ends inside a slow excursion
// takes its node off the hub's degraded gauge when Run returns, with no
// NodeRecovered event, so repeated jobs on one hub do not pile up
// stale degraded nodes.
func TestDegradedGaugeSettles(t *testing.T) {
	hub := telemetry.New(telemetry.Options{})
	plan, err := fault.Parse("slow:0@2x2+100")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		cfg := topologyConfig(t, "space-shared", 8, 8, 2, staticPolicy)
		cfg.Faults, cfg.Telemetry = plan, hub
		if _, err := Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		g := hub.Registry().Gauge("seesaw_degraded_nodes", "", "partition").With("sim").Value()
		if g != 0 {
			t.Fatalf("job %d: seesaw_degraded_nodes{partition=\"sim\"} = %v after Run, want 0", i, g)
		}
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
	if degraded != 2 || recovered != 0 {
		t.Errorf("events: %d NodeDegraded, %d NodeRecovered; want 2 and 0", degraded, recovered)
	}
}
