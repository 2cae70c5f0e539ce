package rollout

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"seesaw/internal/core"
	"seesaw/internal/cosim"
	"seesaw/internal/machine"
	"seesaw/internal/policy"
	"seesaw/internal/units"
	"seesaw/internal/workload"
)

// TestEnvPooledMatchesFresh pins the episode-reuse contract: replaying
// a spec on one Env — pooled cluster, pooled scratch — produces byte-identical reports to a fresh in-loop run,
// every time, for both drivers.
func TestEnvPooledMatchesFresh(t *testing.T) {
	t.Run("space-shared", func(t *testing.T) {
		spec := testSpec("", t)
		n := spec.Workload.SimNodes + spec.Workload.AnaNodes
		cons := spec.constraints(n)

		freshPol, err := policy.New("seesaw", cons, 1)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := cosim.Run(context.Background(), cosim.Config{
			Spec:        spec.Workload,
			Policy:      freshPol,
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

		env := NewEnv()
		for round := 0; round < 3; round++ {
			pol, err := policy.New("seesaw", cons, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := env.Rollout(context.Background(), spec, pol)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if res.TotalTime != fresh.TotalTime || res.TotalEnergy != fresh.TotalEnergy {
				t.Fatalf("round %d totals (%v s, %v J) != fresh (%v s, %v J)",
					round, res.TotalTime, res.TotalEnergy, fresh.TotalTime, fresh.TotalEnergy)
			}
			if !bytes.Equal(syncCSV(t, res.SyncLog), syncCSV(t, fresh.SyncLog)) {
				t.Fatalf("round %d SyncLog diverges from fresh run", round)
			}
		}
	})

	t.Run("workflow", func(t *testing.T) {
		spec := testSpec("dag", t)
		cons := spec.constraints(spec.Workload.SimNodes + spec.Workload.AnaNodes)

		baselinePol, err := policy.New("seesaw", cons, 1)
		if err != nil {
			t.Fatal(err)
		}
		baseline, err := Run(context.Background(), spec, baselinePol)
		if err != nil {
			t.Fatal(err)
		}

		env := NewEnv()
		for round := 0; round < 2; round++ {
			pol, err := policy.New("seesaw", cons, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := env.Rollout(context.Background(), spec, pol)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if res.TotalTime != baseline.TotalTime || res.TotalEnergy != baseline.TotalEnergy {
				t.Fatalf("round %d totals diverge from first run", round)
			}
			if !bytes.Equal(syncCSV(t, res.SyncLog), syncCSV(t, baseline.SyncLog)) {
				t.Fatalf("round %d SyncLog diverges from first run", round)
			}
		}
	})
}

// TestEnvPooledAcrossEpisodeParams pins that one pooled Episode serves
// points differing only in budget/policy: interleaving different
// budgets on one Env must reproduce each budget's fresh-run bytes.
func TestEnvPooledAcrossEpisodeParams(t *testing.T) {
	base := testSpec("", t)
	budgets := []units.Watts{105, 110, 120}

	fresh := map[units.Watts][]byte{}
	for _, b := range budgets {
		spec := base
		spec.CapPerNode = b
		pol, err := policy.New("seesaw", spec.constraints(8), 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), spec, pol)
		if err != nil {
			t.Fatal(err)
		}
		fresh[b] = syncCSV(t, res.SyncLog)
	}

	env := NewEnv()
	// Interleave budgets twice over; every episode reuses the same
	// pooled cluster because the job key ignores the budget.
	for round := 0; round < 2; round++ {
		for _, b := range budgets {
			spec := base
			spec.CapPerNode = b
			pol, err := policy.New("seesaw", spec.constraints(8), 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := env.Rollout(context.Background(), spec, pol)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(syncCSV(t, res.SyncLog), fresh[b]) {
				t.Fatalf("round %d budget %v: pooled SyncLog diverges from fresh run", round, b)
			}
		}
	}
}

// TestStepZeroAllocs is the fast path's allocation gate: a pooled
// Env.Rollout allocates a fixed number of objects per episode (policy,
// result, sync-log backing) and none per step, so ten times the steps
// must not cost a single extra allocation. Time-aware and power-aware
// allocate inside every Allocate and are left out.
func TestStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime perturbs allocation counts")
	}
	for _, name := range []string{"seesaw", "static"} {
		t.Run(name, func(t *testing.T) {
			allocs := func(steps int) float64 {
				spec := Spec{
					Workload: workload.Spec{
						SimNodes: 4, AnaNodes: 4,
						Dim: 8, J: 1, Steps: steps,
						Analyses: workload.Tasks("msd"),
					},
					Seed:    21,
					RunSeed: 22,
					Noise:   machine.DefaultNoise(),
				}
				fac, err := policy.Lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				env := NewEnv()
				rollout := func() {
					pol, err := fac(spec.constraints(8), 1)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := env.Rollout(context.Background(), spec, pol); err != nil {
						t.Fatal(err)
					}
				}
				// Warm the pool: episode, RAPL windows, policy scratch.
				rollout()
				return testing.AllocsPerRun(5, rollout)
			}
			short, long := allocs(400), allocs(4000)
			t.Logf("%.0f allocs/episode at 400 steps, %.0f at 4000", short, long)
			if long > short {
				t.Errorf("Rollout allocates %.0f objects/episode at 4000 steps, %.0f at 400: the window loop allocates", long, short)
			}
		})
	}
}

// cancelAt is a policy that cancels its episode's context at one
// synchronization and otherwise leaves the caps unchanged.
type cancelAt struct {
	sync   int
	cancel context.CancelFunc
}

func (*cancelAt) Name() string { return "cancel-at" }

func (p *cancelAt) Allocate(step int, _ []core.NodeMeasure) []units.Watts {
	if step == p.sync {
		p.cancel()
	}
	return nil
}

// TestEnvPooledHammer drives thousands of pooled episodes through one
// Env — interleaved with episodes cancelled mid-run — to shake out pool
// corruption across episode boundaries.
func TestEnvPooledHammer(t *testing.T) {
	episodes := 10000
	if testing.Short() {
		episodes = 500
	}
	spec := Spec{
		Workload: workload.Spec{
			SimNodes: 2, AnaNodes: 2,
			Dim: 8, J: 1, Steps: 6,
			Analyses: workload.Tasks("msd"),
		},
		Seed:    31,
		RunSeed: 32,
		Noise:   machine.DefaultNoise(),
	}
	pol, err := policy.New("seesaw", spec.constraints(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(context.Background(), spec, pol)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := syncCSV(t, want.SyncLog)

	env := NewEnv()
	completed := 0
	for i := 0; i < episodes; i++ {
		if i%5 == 4 {
			// Cancel at sync 3: Rollout must surface the context error,
			// and the next pooled episode must replay from scratch.
			ctx, cancel := context.WithCancel(context.Background())
			_, err := env.Rollout(ctx, spec, &cancelAt{sync: 3, cancel: cancel})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("episode %d: cancelled rollout returned %v, want %v", i, err, context.Canceled)
			}
			continue
		}
		p, err := policy.New("seesaw", spec.constraints(4), 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := env.Rollout(context.Background(), spec, p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(syncCSV(t, res.SyncLog), wantCSV) {
			t.Fatalf("episode %d diverges after pooled replay", i)
		}
		completed++
	}
	if completed == 0 {
		t.Fatal("no episodes completed")
	}
}

// TestRolloutContextCancelled: the context passed to Rollout governs
// the whole episode.
func TestRolloutContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pol, err := policy.New("seesaw", testSpec("", t).constraints(8), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEnv().Rollout(ctx, testSpec("", t), pol); err == nil {
		t.Fatal("Rollout under a cancelled context succeeded")
	}
}

// TestGridKeyExtras pins the non-default key segments: grids differing
// in steps, j, analyses or seed can never collide on a point key, while
// default grids keep their established key shape.
func TestGridKeyExtras(t *testing.T) {
	def, err := Grid{Policies: []string{"seesaw"}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(def) != 1 {
		t.Fatalf("default grid expands to %d points, want 1", len(def))
	}
	if def[0].Key != "n8/b110/w1/dim16/faults=none/topo=space-shared/seesaw" {
		t.Fatalf("default key changed: %q", def[0].Key)
	}

	varied, err := Grid{
		Policies: []string{"seesaw"},
		Steps:    12,
		J:        3,
		Analyses: []string{"msd", "rdf"},
		Seed:     7,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := "n8/b110/w1/dim16/steps12/j3/an=msd+rdf/seed7/faults=none/topo=space-shared/seesaw"
	if varied[0].Key != want {
		t.Fatalf("varied key = %q, want %q", varied[0].Key, want)
	}
}
