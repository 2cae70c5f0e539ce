package insitu

import (
	"context"
	"fmt"
	"testing"

	"seesaw/internal/core"
	"seesaw/internal/units"
)

// scaleConfig is one in-situ job at the given world size (half
// simulation, half analysis), shrunk to a few steps so ns/op tracks the
// substrate cost per step rather than the MD physics.
func scaleConfig(world int) Config {
	cons := core.Constraints{Budget: units.Watts(110 * world), MinCap: 98, MaxCap: 215}
	return Config{
		SimRanks:    world / 2,
		AnaRanks:    world / 2,
		Steps:       4,
		SyncEvery:   2,
		Analyses:    []string{"msd"},
		Policy:      core.NewStatic(),
		Constraints: cons,
		Seed:        11,
	}
}

// BenchmarkInsituScale runs the full in-situ workflow — mini-MD,
// frame shipping, analyses, PoLiMER power allocation — at increasing
// node counts. One iteration is one whole job.
func BenchmarkInsituScale(b *testing.B) {
	for _, world := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("nodes=%d", world), func(b *testing.B) {
			b.ReportAllocs()
			cfg := scaleConfig(world)
			for i := 0; i < b.N; i++ {
				res, err := Run(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.MainLoopTime <= 0 {
					b.Fatal("non-positive main loop time")
				}
			}
		})
	}
}
