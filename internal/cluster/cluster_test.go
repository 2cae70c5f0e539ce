package cluster

import (
	"strings"
	"testing"

	"seesaw/internal/core"
	"seesaw/internal/fault"
	"seesaw/internal/machine"
	"seesaw/internal/telemetry"
)

func mustNew(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewBuildsPartitions(t *testing.T) {
	c := mustNew(t, Config{SimNodes: 3, AnaNodes: 2, JobSeed: 11})
	if c.Size() != 5 {
		t.Fatalf("size = %d, want 5", c.Size())
	}
	for i := 0; i < 5; i++ {
		wantRole := core.RoleSimulation
		if i >= 3 {
			wantRole = core.RoleAnalysis
		}
		if c.Role(i) != wantRole {
			t.Errorf("node %d role = %v, want %v", i, c.Role(i), wantRole)
		}
		if c.Health(i) != core.Healthy || !c.Alive(i) {
			t.Errorf("node %d not healthy at start", i)
		}
		if c.Node(i).ID() != i {
			t.Errorf("node %d machine id = %d", i, c.Node(i).ID())
		}
	}
	sim, ana := c.AliveCounts()
	if sim != 3 || ana != 2 {
		t.Errorf("alive = %d/%d, want 3/2", sim, ana)
	}
}

// TestSeedWiringMatchesDirectConstruction pins the refactor invariant:
// the cluster builds exactly the nodes the drivers used to build
// themselves, so fault-free runs stay byte-identical.
func TestSeedWiringMatchesDirectConstruction(t *testing.T) {
	noise := machine.DefaultNoise()
	c := mustNew(t, Config{SimNodes: 2, AnaNodes: 2, Noise: noise, JobSeed: 42, RunSeed: 99})
	for i := 0; i < 4; i++ {
		want := machine.DefaultNodeWithSeeds(i, noise, 42, 99)
		if got := c.Node(i).Skew(); got != want.Skew() {
			t.Errorf("node %d skew = %v, want %v", i, got, want.Skew())
		}
	}
	// RunSeed zero falls back to JobSeed (insitu's single-seed mode).
	a := mustNew(t, Config{SimNodes: 1, AnaNodes: 1, Noise: noise, JobSeed: 7})
	b := mustNew(t, Config{SimNodes: 1, AnaNodes: 1, Noise: noise, JobSeed: 7, RunSeed: 7})
	ea := a.Node(0).Run(machine.Phase{Name: "p", Nominal: 1, Demand: 110, Saturation: 140, Sensitivity: 0.9}, noise)
	eb := b.Node(0).Run(machine.Phase{Name: "p", Nominal: 1, Demand: 110, Saturation: 140, Sensitivity: 0.9}, noise)
	if ea.Duration != eb.Duration {
		t.Errorf("RunSeed 0 should equal RunSeed == JobSeed: %v vs %v", ea.Duration, eb.Duration)
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"no sim", Config{SimNodes: 0, AnaNodes: 2}, "positive partition"},
		{"no ana", Config{SimNodes: 2, AnaNodes: 0}, "positive partition"},
		{"plan out of range", Config{SimNodes: 2, AnaNodes: 2,
			Faults: &fault.Plan{Events: []fault.Event{{Kind: fault.Kill, Node: 9, Sync: 1}}}}, "outside"},
		{"sim wipeout", Config{SimNodes: 2, AnaNodes: 2,
			Faults: &fault.Plan{Events: []fault.Event{
				{Kind: fault.Kill, Node: 0, Sync: 1}, {Kind: fault.Kill, Node: 1, Sync: 5}}}},
			"kills all 2 simulation"},
		{"ana wipeout", Config{SimNodes: 2, AnaNodes: 1,
			Faults: &fault.Plan{Events: []fault.Event{{Kind: fault.Kill, Node: 2, Sync: 3}}}},
			"kills all 1 analysis"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("New err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestAdvanceKill(t *testing.T) {
	hub := telemetry.New(telemetry.Options{})
	plan, err := fault.Parse("kill:3@5")
	if err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, Config{SimNodes: 2, AnaNodes: 2, Faults: plan, Telemetry: hub})

	if trs := c.Advance(1.0, 4); trs != nil {
		t.Fatalf("no transitions before sync 5, got %v", trs)
	}
	trs := c.Advance(2.5, 5)
	if len(trs) != 1 {
		t.Fatalf("transitions = %v, want one kill", trs)
	}
	tr := trs[0]
	if tr.NodeID != 3 || tr.Role != core.RoleAnalysis || tr.From != core.Healthy || tr.To != core.Dead || tr.Sync != 5 {
		t.Errorf("transition = %+v", tr)
	}
	if c.Alive(3) || c.Health(3) != core.Dead {
		t.Error("node 3 should be dead")
	}
	sim, ana := c.AliveCounts()
	if sim != 2 || ana != 1 {
		t.Errorf("alive = %d/%d, want 2/1", sim, ana)
	}
	if got := c.WorkScale(core.RoleAnalysis); got != 2 {
		t.Errorf("ana WorkScale = %v, want 2", got)
	}
	if got := c.WorkScale(core.RoleSimulation); got != 1 {
		t.Errorf("sim WorkScale = %v, want 1", got)
	}
	// Kills are idempotent: later syncs fire nothing.
	if trs := c.Advance(3.0, 6); trs != nil {
		t.Errorf("re-advance fired %v", trs)
	}
	evs := hub.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1", len(evs))
	}
	k, ok := evs[0].(telemetry.NodeKilled)
	if !ok || k.Node != 3 || k.Sync != 5 || k.AliveSim != 2 || k.AliveAna != 1 || k.Role != "ana" {
		t.Errorf("NodeKilled = %#v", evs[0])
	}
}

// TestAdvanceCatchUp: a driver that first reaches the plan later than
// the kill sync (e.g. after an epoch boundary) still applies it.
func TestAdvanceCatchUp(t *testing.T) {
	plan, _ := fault.Parse("kill:1@3")
	c := mustNew(t, Config{SimNodes: 2, AnaNodes: 1, Faults: plan})
	trs := c.Advance(9, 8)
	if len(trs) != 1 || trs[0].NodeID != 1 || trs[0].Sync != 8 {
		t.Fatalf("catch-up transitions = %v", trs)
	}
}

func TestSlowExcursion(t *testing.T) {
	hub := telemetry.New(telemetry.Options{})
	plan, err := fault.Parse("slow:0@4x2+3") // syncs 4,5,6 at 2x
	if err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, Config{SimNodes: 2, AnaNodes: 1, Faults: plan, Telemetry: hub})

	c.Advance(1, 3)
	if c.Node(0).SlowFactor() != 1 || c.Health(0) != core.Healthy {
		t.Fatal("excursion started early")
	}
	trs := c.Advance(2, 4)
	if len(trs) != 1 || trs[0].To != core.Degraded || trs[0].Factor != 2 {
		t.Fatalf("degrade transitions = %v", trs)
	}
	if c.Node(0).SlowFactor() != 2 || c.Health(0) != core.Degraded {
		t.Error("slow factor not applied")
	}
	if trs := c.Advance(3, 5); trs != nil {
		t.Errorf("mid-window re-fire: %v", trs)
	}
	trs = c.Advance(4, 7)
	if len(trs) != 1 || trs[0].To != core.Healthy {
		t.Fatalf("recover transitions = %v", trs)
	}
	if c.Node(0).SlowFactor() != 1 || c.Health(0) != core.Healthy {
		t.Error("node did not recover")
	}
	var kinds []string
	for _, e := range hub.Events() {
		kinds = append(kinds, e.Kind())
	}
	if len(kinds) != 2 || kinds[0] != "NodeDegraded" || kinds[1] != "NodeRecovered" {
		t.Errorf("events = %v", kinds)
	}
}

// TestKillWhileDegraded: the excursion ends with the node, keeping the
// telemetry degraded gauge consistent.
func TestKillWhileDegraded(t *testing.T) {
	hub := telemetry.New(telemetry.Options{})
	plan, err := fault.Parse("slow:0@2x2+10,kill:0@5")
	if err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, Config{SimNodes: 2, AnaNodes: 1, Faults: plan, Telemetry: hub})
	c.Advance(1, 2)
	trs := c.Advance(2, 5)
	if len(trs) != 1 || trs[0].From != core.Degraded || trs[0].To != core.Dead {
		t.Fatalf("kill transitions = %v", trs)
	}
	var kinds []string
	for _, e := range hub.Events() {
		kinds = append(kinds, e.Kind())
	}
	want := []string{"NodeDegraded", "NodeRecovered", "NodeKilled"}
	if len(kinds) != 3 || kinds[0] != want[0] || kinds[1] != want[1] || kinds[2] != want[2] {
		t.Errorf("events = %v, want %v", kinds, want)
	}
	var sb strings.Builder
	if err := hub.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `seesaw_degraded_nodes{partition="sim"} 0`) {
		t.Error("degraded gauge not restored by kill")
	}
}

// TestApplyPerRank covers the rank-parallel path.
func TestApplyPerRank(t *testing.T) {
	plan, err := fault.Parse("kill:2@3,slow:0@2x1.5+2")
	if err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, Config{SimNodes: 2, AnaNodes: 2, Faults: plan})
	if _, dead := c.Apply(2, 1, 1); dead {
		t.Fatal("node 2 dead before its sync")
	}
	trs, dead := c.Apply(2, 2, 3)
	if !dead || len(trs) != 1 || trs[0].To != core.Dead {
		t.Fatalf("Apply kill = %v, %v", trs, dead)
	}
	// Apply on a dead node is a no-op that still reports dead.
	trs, dead = c.Apply(2, 3, 4)
	if !dead || trs != nil {
		t.Errorf("re-Apply = %v, %v", trs, dead)
	}
	// Other nodes are untouched by node 2's applications.
	trs, dead = c.Apply(0, 2, 2)
	if dead || len(trs) != 1 || trs[0].To != core.Degraded || trs[0].Factor != 1.5 {
		t.Errorf("Apply slow = %v, %v", trs, dead)
	}
}

func TestMeasureIdentity(t *testing.T) {
	plan, _ := fault.Parse("kill:1@1")
	c := mustNew(t, Config{SimNodes: 2, AnaNodes: 1, Faults: plan})
	c.Node(0).RAPL().SetLongCap(120)
	c.Node(0).Idle(1) // let the cap's actuation latency elapse
	c.Advance(0, 1)
	m := c.Measure(0)
	if m.NodeID != 0 || m.Health != core.Healthy || m.Role != core.RoleSimulation || m.Cap != 120 {
		t.Errorf("live measure = %+v", m)
	}
	d := c.Measure(1)
	if d.NodeID != 1 || d.Health != core.Dead || d.Cap != 0 {
		t.Errorf("dead measure = %+v", d)
	}
}

func TestTransitionString(t *testing.T) {
	tr := Transition{NodeID: 2, Role: core.RoleSimulation, From: core.Healthy, To: core.Degraded, Factor: 2, Sync: 4}
	if got := tr.String(); !strings.Contains(got, "x2") || !strings.Contains(got, "node 2") {
		t.Errorf("String = %q", got)
	}
	tr2 := Transition{NodeID: 3, Role: core.RoleAnalysis, From: core.Healthy, To: core.Dead, Sync: 5}
	if got := tr2.String(); !strings.Contains(got, "dead") {
		t.Errorf("String = %q", got)
	}
}
