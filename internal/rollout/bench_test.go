package rollout

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"seesaw/internal/machine"
	"seesaw/internal/policy"
	"seesaw/internal/units"
	"seesaw/internal/workload"
)

// benchSpec is the scale point the rollout benchmarks share: episode
// shape mirrors BenchmarkTopologies' scale points (dim 8, 4
// synchronized steps) so the substrate cost is comparable across the
// two benchmarks.
func benchSpec(nodes int) Spec {
	return Spec{
		Workload: workload.Spec{
			SimNodes: nodes / 2, AnaNodes: nodes / 2,
			Dim: 8, J: 1, Steps: 4,
			Analyses: workload.Tasks("msd"),
		},
		Seed:    11,
		RunSeed: 12,
		Noise:   machine.DefaultNoise(),
	}
}

// BenchmarkRollouts is the headline throughput number: complete
// policy-search episodes per second through Env.Rollout — registry
// policy construction and all — on the pooled single-worker path Batch
// workers run (one Env reused across episodes, as a sweep over
// budgets/policies replays one job).
func BenchmarkRollouts(b *testing.B) {
	for _, nodes := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			spec := benchSpec(nodes)
			cons := spec.constraints(nodes)
			fac, err := policy.Lookup("seesaw")
			if err != nil {
				b.Fatal(err)
			}
			env := NewEnv()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pol, err := fac(cons, 1)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := env.Rollout(context.Background(), spec, pol); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rollouts/sec")
		})
	}
}

// BenchmarkRolloutsFresh is the unpooled baseline: a throwaway Env per
// episode, cluster rebuilt every run. The gap to BenchmarkRollouts is
// what the episode pool buys.
func BenchmarkRolloutsFresh(b *testing.B) {
	for _, nodes := range []int{256, 1024} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			spec := benchSpec(nodes)
			cons := spec.constraints(nodes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pol, err := policy.New("seesaw", cons, 1)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Run(context.Background(), spec, pol); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rollouts/sec")
		})
	}
}

// BenchmarkRolloutsBatch measures batch scaling: one iteration fans a
// 64-point budget/window/policy sweep of a single job across the
// campaign pool at the given concurrency, exercising the shared
// JobState cache and the per-worker episode pools together. One
// iteration is one Batch call — the shape of a real search invocation —
// so per-call costs (trace recording, per-worker population
// construction) are amortized exactly as a user's sweep amortizes them.
//
// Honest multi-core numbers need the worker concurrency and the
// scheduler's parallelism to agree, so run this benchmark with
// -cpu 1,4,8 (the Makefile's bench-rollouts target does): each jobs=N
// row then appears once per GOMAXPROCS value. A jobs>1 row under
// GOMAXPROCS=1 is skipped with a note — its workers would time-slice
// one core and the row would measure scheduler interleaving, not batch
// scaling.
func BenchmarkRolloutsBatch(b *testing.B) {
	for _, nodes := range []int{256, 1024} {
		points, err := Grid{
			Nodes:    []int{nodes},
			Dims:     []int{8},
			Steps:    4,
			Budgets:  []units.Watts{104, 106, 108, 110, 112, 114, 116, 118},
			Windows:  []int{1, 2},
			Policies: []string{"seesaw", "time-aware", "power-aware", "static"},
		}.Expand()
		if err != nil {
			b.Fatal(err)
		}
		for _, jobs := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("nodes=%d/jobs=%d", nodes, jobs), func(b *testing.B) {
				if jobs > 1 && runtime.GOMAXPROCS(0) == 1 {
					b.Skipf("jobs=%d with GOMAXPROCS=1: workers would time-slice one core; see -cpu 4,8 rows", jobs)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					outs, err := Batch(context.Background(), points, Options{Jobs: jobs})
					if err != nil {
						b.Fatal(err)
					}
					for _, o := range outs {
						if o.Err != nil {
							b.Fatal(o.Err)
						}
					}
				}
				b.ReportMetric(float64(b.N*len(points))/b.Elapsed().Seconds(), "rollouts/sec")
			})
		}
	}
}
