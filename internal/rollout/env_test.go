package rollout

import (
	"bytes"
	"context"
	"math"
	"testing"

	"seesaw/internal/core"
	"seesaw/internal/cosim"
	"seesaw/internal/fault"
	"seesaw/internal/machine"
	"seesaw/internal/policy"
	"seesaw/internal/trace"
	"seesaw/internal/units"
	"seesaw/internal/workflow"
	"seesaw/internal/workload"
)

// testSpec is a small-but-real episode: 8 nodes, a 2x slowdown
// excursion mid-run, paper-default noise.
func testSpec(topology string, t *testing.T) Spec {
	t.Helper()
	plan, err := fault.Parse("slow:0@5x2+8")
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Workload: workload.Spec{
			SimNodes: 4, AnaNodes: 4,
			Dim: 16, J: 1, Steps: 30,
			Analyses: workload.Tasks("msd"),
		},
		Topology: topology,
		Seed:     9,
		RunSeed:  10,
		Noise:    machine.DefaultNoise(),
		Faults:   plan,
	}
}

func syncCSV(t *testing.T, log *trace.SyncLog) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := log.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEnvByteIdenticalToInLoopCosim pins the package's core contract:
// a registry policy driven through an Env rollout reproduces the
// space-shared driver's in-loop execution byte for byte.
func TestEnvByteIdenticalToInLoopCosim(t *testing.T) {
	for _, name := range policy.Names() {
		t.Run(name, func(t *testing.T) {
			spec := testSpec("", t)
			n := spec.Workload.SimNodes + spec.Workload.AnaNodes
			cons := spec.constraints(n)

			inPol, err := policy.New(name, cons, 1)
			if err != nil {
				t.Fatal(err)
			}
			inRes, err := cosim.Run(context.Background(), cosim.Config{
				Spec:        spec.Workload,
				Policy:      inPol,
				Constraints: cons,
				CapMode:     cosim.CapLong,
				Seed:        spec.Seed,
				RunSeed:     spec.RunSeed,
				Noise:       spec.Noise,
				Faults:      spec.Faults,
			})
			if err != nil {
				t.Fatal(err)
			}

			envPol, err := policy.New(name, cons, 1)
			if err != nil {
				t.Fatal(err)
			}
			envRes, err := NewEnv().Rollout(context.Background(), spec, envPol)
			if err != nil {
				t.Fatal(err)
			}

			if envRes.TotalTime != inRes.TotalTime || envRes.TotalEnergy != inRes.TotalEnergy {
				t.Errorf("env totals (%v s, %v J) != in-loop (%v s, %v J)",
					envRes.TotalTime, envRes.TotalEnergy, inRes.TotalTime, inRes.TotalEnergy)
			}
			if !bytes.Equal(syncCSV(t, envRes.SyncLog), syncCSV(t, inRes.SyncLog)) {
				t.Error("env SyncLog diverges from in-loop SyncLog")
			}
		})
	}
}

// TestEnvByteIdenticalToInLoopWorkflow is the same contract over the
// workflow driver (dag and in-transit placements).
func TestEnvByteIdenticalToInLoopWorkflow(t *testing.T) {
	for _, topology := range []string{"dag", "in-transit"} {
		t.Run(topology, func(t *testing.T) {
			spec := testSpec(topology, t)
			topo, err := workflow.Build(topology, workflow.Params{
				Nodes:    spec.Workload.SimNodes + spec.Workload.AnaNodes,
				Dim:      spec.Workload.Dim,
				J:        spec.Workload.J,
				Steps:    spec.Workload.Steps,
				Analyses: spec.Workload.Analyses,
			})
			if err != nil {
				t.Fatal(err)
			}
			cons := topo.ScaleCaps(spec.constraints(topo.PhysicalNodes))

			inPol, err := policy.New("seesaw", cons, 1)
			if err != nil {
				t.Fatal(err)
			}
			inRes, err := workflow.Run(context.Background(), workflow.Config{
				Graph:       topo.Graph,
				Steps:       spec.Workload.Steps,
				SyncEvery:   spec.Workload.J,
				Policy:      inPol,
				Constraints: cons,
				Seed:        spec.Seed,
				RunSeed:     spec.RunSeed,
				Noise:       spec.Noise,
				Faults:      spec.Faults,
			})
			if err != nil {
				t.Fatal(err)
			}

			envPol, err := policy.New("seesaw", cons, 1)
			if err != nil {
				t.Fatal(err)
			}
			envRes, err := NewEnv().Rollout(context.Background(), spec, envPol)
			if err != nil {
				t.Fatal(err)
			}

			if envRes.TotalTime != inRes.MainLoopTime || envRes.TotalEnergy != inRes.TotalEnergy {
				t.Errorf("env totals (%v s, %v J) != in-loop (%v s, %v J)",
					envRes.TotalTime, envRes.TotalEnergy, inRes.MainLoopTime, inRes.TotalEnergy)
			}
			if !bytes.Equal(syncCSV(t, envRes.SyncLog), syncCSV(t, inRes.SyncLog)) {
				t.Error("env SyncLog diverges from in-loop SyncLog")
			}
		})
	}
}

// TestNoiseMemoGolden pins the memoization contract end to end: a
// memoized episode (noise trace recorded once, replayed thereafter) is
// byte-identical to a one-shot cosim.Run of the same job, policy and
// constraints, which draws every jitter variate live from the node
// streams. The cases vary what the
// interval-major trace windows depend on: draws per execution,
// per-interval and per-partition phase counts (a trailing interval with
// no analysis, analyses due on different steps) and device classes.
func TestNoiseMemoGolden(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Spec)
	}{
		{"msd", func(*Spec) {}},
		// One draw per execution: no power-reading ripple.
		{"power-sigma-0", func(s *Spec) { s.Noise.PowerSigma = 0 }},
		// Syncs at 3, 6, ..., 30, then a trailing interval (step 31)
		// with no analysis phases.
		{"j3-steps31", func(s *Spec) { s.Workload.J, s.Workload.Steps = 3, 31 }},
		// rdf at every step, msd on every fourth.
		{"mixed-intervals", func(s *Spec) {
			s.Workload.Analyses = []workload.AnalysisTask{{Name: "rdf", Interval: 1}, {Name: "msd", Interval: 4}}
		}},
		{"classes", func(s *Spec) { s.Classes = machine.MustParseClassMap("1-2:gpu,5-6:lowpower") }},
	}
	for _, tc := range cases {
		spec := testSpec("", t)
		spec.Faults = nil // fault-free so the memo path actually engages
		tc.edit(&spec)
		n := spec.Workload.SimNodes + spec.Workload.AnaNodes
		st, err := NewStateCache().state(spec.jobKey(), spec.jobConfig())
		if err != nil {
			t.Fatal(err)
		}
		if st.TraceBytes() == 0 {
			t.Fatalf("%s: job records no noise trace; the memo path is not under test", tc.name)
		}
		for _, name := range []string{"seesaw", "time-aware", "power-aware", "static"} {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				cons := spec.constraints(n)
				newPolicy := func() core.Policy {
					t.Helper()
					pol, err := policy.New(name, cons, 1)
					if err != nil {
						t.Fatal(err)
					}
					return pol
				}
				// Two rollouts: the second replays the recorded trace
				// over the pooled episode.
				env := NewEnv()
				var memo *Result
				for i := 0; i < 2; i++ {
					var err error
					if memo, err = env.Rollout(context.Background(), spec, newPolicy()); err != nil {
						t.Fatal(err)
					}
				}

				cfg := spec.jobConfig()
				cfg.Policy, cfg.Constraints, cfg.CapMode = newPolicy(), cons, cosim.CapLong
				live, err := cosim.Run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}

				if memo.TotalTime != live.TotalTime || memo.TotalEnergy != live.TotalEnergy {
					t.Error("memoized totals diverge from live draws")
				}
				if !bytes.Equal(syncCSV(t, memo.SyncLog), syncCSV(t, live.SyncLog)) {
					t.Error("memoized SyncLog diverges from live draws")
				}
			})
		}
	}
}

// TestBatchByteIdenticalAcrossJobs pins Batch's concurrency contract:
// outcomes are pure functions of their points, so jobs=1 and jobs=8
// produce identical results in identical order.
func TestBatchByteIdenticalAcrossJobs(t *testing.T) {
	points, err := Grid{
		Nodes:      []int{8},
		Steps:      12,
		Faults:     []string{"", "slow:0@4x2+4"},
		Topologies: []string{"", "dag"},
		Policies:   []string{"seesaw", "time-aware", "bandit"},
		Seed:       5,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}

	run := func(jobs int) []Outcome {
		outs, err := Batch(context.Background(), points, Options{Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return outs
	}
	seq, par := run(1), run(8)
	if len(seq) != len(points) || len(par) != len(points) {
		t.Fatalf("outcome counts %d/%d, want %d", len(seq), len(par), len(points))
	}
	for i := range seq {
		if seq[i].Point.Key != par[i].Point.Key {
			t.Fatalf("outcome %d keys diverge: %q vs %q", i, seq[i].Point.Key, par[i].Point.Key)
		}
		a, b := seq[i].Result, par[i].Result
		if a == nil || b == nil {
			t.Fatalf("point %q failed: %v / %v", points[i].Key, seq[i].Err, par[i].Err)
		}
		if a.TotalTime != b.TotalTime || a.TotalEnergy != b.TotalEnergy {
			t.Errorf("point %q totals diverge across jobs", points[i].Key)
		}
		if !bytes.Equal(syncCSV(t, a.SyncLog), syncCSV(t, b.SyncLog)) {
			t.Errorf("point %q SyncLog diverges across jobs", points[i].Key)
		}
	}
}

// TestGridExpandJobsConsecutive: every job axis nests outside the
// budgets, windows and policies, so a job's points are consecutive and
// a worker walking them in order switches job only when the previous
// job is done.
func TestGridExpandJobsConsecutive(t *testing.T) {
	points, err := Grid{
		Nodes:      []int{8, 16},
		Budgets:    []units.Watts{105, 110},
		Windows:    []int{1, 2},
		Dims:       []int{12, 16},
		Faults:     []string{"", "slow:0@4x2+4"},
		Classes:    []string{"", "0-3:gpu"},
		Topologies: []string{"", "time-shared"},
		Policies:   []string{"seesaw", "static"},
		Steps:      12,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	done := map[string]bool{}
	prev, switches := "", 0
	for _, p := range points {
		job := p.Spec.jobKey() + "/topo=" + p.Spec.Topology
		if job == prev {
			continue
		}
		if done[job] {
			t.Fatalf("point %s returns to a finished job", p.Key)
		}
		done[job] = true
		prev = job
		switches++
	}
	if want := 2 * 2 * 2 * 2 * 2; switches != want {
		t.Errorf("%d points switch job %d times, want once per job (%d)", len(points), switches, want)
	}
}

// TestGridExpandValidation: bad axis values fail fast, before any
// rollout runs.
func TestGridExpandValidation(t *testing.T) {
	if _, err := (Grid{Policies: []string{"nope"}}).Expand(); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := (Grid{Topologies: []string{"mesh"}}).Expand(); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := (Grid{Faults: []string{"explode:1@2"}}).Expand(); err == nil {
		t.Error("bad fault plan accepted")
	}
	// Explicit zeros must not fall back to the axis or spec defaults.
	for name, g := range map[string]Grid{
		"zero budget":     {Budgets: []units.Watts{0, 110}},
		"negative budget": {Budgets: []units.Watts{-5}},
		"NaN budget":      {Budgets: []units.Watts{units.Watts(math.NaN())}},
		"infinite budget": {Budgets: []units.Watts{110, units.Watts(math.Inf(1))}},
		"zero window":     {Windows: []int{0, 1}},
		"zero dim":        {Dims: []int{0}},
		"negative dim":    {Dims: []int{-16}},
		"one node":        {Nodes: []int{1}},
		"zero nodes":      {Nodes: []int{0, 8}},
	} {
		if _, err := g.Expand(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	points, err := Grid{}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(policy.Names()) {
		t.Errorf("zero grid expands to %d points, want one per registered policy (%d)",
			len(points), len(policy.Names()))
	}
}
