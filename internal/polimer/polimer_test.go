package polimer

import (
	"sync"
	"testing"

	"seesaw/internal/core"
	"seesaw/internal/machine"
	"seesaw/internal/mpi"
	"seesaw/internal/units"
)

func cons() core.Constraints {
	return core.Constraints{Budget: 110 * 4, MinCap: 98, MaxCap: 215}
}

// runJob drives nRanks ranks through `syncs` synchronizations; each rank
// does `work(rank)` seconds of a compute phase per interval on its node.
func runJob(t *testing.T, nRanks, syncs int, policy core.Policy, work func(rank int) units.Seconds) []*Manager {
	t.Helper()
	mgrs := make([]*Manager, nRanks)
	var mu sync.Mutex
	err := mpi.Run(nRanks, mpi.DefaultCost(), func(r *mpi.Rank) {
		role := core.RoleSimulation
		if r.WorldRank() >= nRanks/2 {
			role = core.RoleAnalysis
		}
		node := machine.DefaultNode(r.WorldRank(), machine.NoiseModel{}, 1)
		mgr, err := Init(r, role, node, Options{
			Policy:      policy,
			Constraints: cons(),
			InitialCap:  110,
		})
		if err != nil {
			panic(err)
		}
		for s := 0; s < syncs; s++ {
			exec := node.Run(machine.Phase{
				Name: "work", Nominal: work(r.WorldRank()),
				Demand: 130, Saturation: 140, Sensitivity: 0.9,
			}, machine.NoiseModel{})
			r.Elapse(exec.Duration)
			mgr.PowerAlloc()
		}
		mu.Lock()
		mgrs[r.WorldRank()] = mgr
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	return mgrs
}

func TestInitValidation(t *testing.T) {
	err := mpi.Run(2, mpi.DefaultCost(), func(r *mpi.Rank) {
		node := machine.DefaultNode(r.WorldRank(), machine.NoiseModel{}, 1)
		if r.WorldRank() == 0 {
			// Root without a policy must fail.
			if _, err := Init(r, core.RoleSimulation, node, Options{Constraints: cons()}); err == nil {
				panic("root without policy accepted")
			}
			// Nil node must fail.
			if _, err := Init(r, core.RoleSimulation, nil, Options{Policy: core.NewStatic()}); err == nil {
				panic("nil node accepted")
			}
		}
		// Both ranks must still synchronize once so neither hangs.
		r.World().Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInitialCapInstalled(t *testing.T) {
	mgrs := runJob(t, 2, 1, core.NewStatic(), func(int) units.Seconds { return 0.1 })
	for i, m := range mgrs {
		if got := m.node.RAPL().LongCap(); got != 110 {
			t.Errorf("rank %d cap = %v, want 110", i, got)
		}
	}
}

func TestSyncLogOnRootOnly(t *testing.T) {
	mgrs := runJob(t, 4, 3, core.NewStatic(), func(int) units.Seconds { return 0.1 })
	if mgrs[0].SyncLog() == nil || mgrs[0].SyncLog().Len() != 3 {
		t.Error("root should log 3 synchronizations")
	}
	for i := 1; i < 4; i++ {
		if mgrs[i].SyncLog() != nil {
			t.Errorf("rank %d unexpectedly has a log", i)
		}
	}
}

func TestMeasurementsReflectWork(t *testing.T) {
	// Sim ranks do 1 s, analysis ranks 0.5 s per interval: the recorded
	// busy times must show that.
	mgrs := runJob(t, 4, 4, core.NewStatic(), func(rank int) units.Seconds {
		if rank < 2 {
			return 1.0
		}
		return 0.5
	})
	rec := mgrs[0].SyncLog().Records[2]
	if rec.SimTime <= rec.AnaTime {
		t.Errorf("sim busy %v should exceed ana busy %v", rec.SimTime, rec.AnaTime)
	}
	// The analysis partition idles at the sync: measured power must dip
	// below the cap while the simulation runs at it.
	if rec.AnaPower >= rec.SimPower {
		t.Errorf("idle-diluted analysis power %v should be below sim %v", rec.AnaPower, rec.SimPower)
	}
}

func TestSeeSAwChangesCaps(t *testing.T) {
	ss := core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cons(), Window: 1})
	mgrs := runJob(t, 4, 10, ss, func(rank int) units.Seconds {
		if rank < 2 {
			return 1.0
		}
		return 0.5
	})
	simCap := mgrs[0].node.RAPL().LongCap()
	anaCap := mgrs[2].node.RAPL().LongCap()
	if simCap == 110 && anaCap == 110 {
		t.Error("SeeSAw left caps at the initial split after 10 imbalanced syncs")
	}
	if simCap < 98 || simCap > 215 || anaCap < 98 || anaCap > 215 {
		t.Errorf("caps out of range: %v/%v", simCap, anaCap)
	}
}

func TestOverheadAccounted(t *testing.T) {
	mgrs := runJob(t, 4, 5, core.NewStatic(), func(int) units.Seconds { return 0.1 })
	if mgrs[0].OverheadTotal() <= 0 {
		t.Error("allocator overhead not accounted")
	}
}

// TestShortTermCapMode checks that ShortTermCap installs the short cap
// next to the long one: with both in force, RAPL regulates a full
// demand to the long cap lowered by the dual-cap margin.
func TestShortTermCapMode(t *testing.T) {
	var allowed units.Watts
	var dual bool
	err := mpi.Run(2, mpi.DefaultCost(), func(r *mpi.Rank) {
		node := machine.DefaultNode(r.WorldRank(), machine.NoiseModel{}, 1)
		_, err := Init(r, core.RoleSimulation, node, Options{
			Policy: core.NewStatic(), Constraints: cons(), InitialCap: 110, ShortTermCap: true,
		})
		if err != nil {
			panic(err)
		}
		node.Idle(0.02)
		if r.WorldRank() == 0 {
			allowed, dual = node.RAPL().Grant(215)
		}
		r.World().Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if allowed != 107.8 || !dual {
		t.Errorf("Grant(215) = (%v, %v), want (107.8, true)", allowed, dual)
	}
}

func TestRoleAccessor(t *testing.T) {
	mgrs := runJob(t, 2, 1, core.NewStatic(), func(int) units.Seconds { return 0.1 })
	if mgrs[0].Role() != core.RoleSimulation || mgrs[1].Role() != core.RoleAnalysis {
		t.Error("roles wrong")
	}
}
