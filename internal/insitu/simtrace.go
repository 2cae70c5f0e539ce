package insitu

import (
	"context"

	"seesaw/internal/lammps"
)

// simTrace is the recording of one simulation rank's mini-MD run.
//
// Every simulation rank constructs its System from the same shared
// Config.Lammps — the paper's "simulation processes have equal work"
// assumption — and the engine is deterministic with no force coupling
// between ranks, so every sub-box trajectory is bitwise identical. The
// driver therefore integrates the physics once per job and replays the
// recording on every rank instead of repeating the same floating-point
// work SimRanks times. The recorder makes exactly the System calls
// runSimRank makes, in the same order, so every recorded work count,
// frame and thermo scalar is the float the per-rank run would have
// produced.
type simTrace struct {
	n           int
	frameBytes  int
	thermoBytes int
	steps       []simStepTrace
	finalEnergy float64
}

// simStepTrace is one Verlet step of the recording.
type simStepTrace struct {
	integrate lammps.WorkCount
	frame     *lammps.Frame    // snapshot shipped at a synchronization step
	rebuilt   bool             // a non-sync skin-violation rebuild ran
	neighbor  lammps.WorkCount // BuildNeighbors work when frame != nil or rebuilt
	force     lammps.WorkCount // ComputeForces + FinalIntegrate
	ke, pe    float64          // thermo scalars after the step
}

// recordSimTrace integrates one system through the job's step schedule,
// mirroring runSimRank's call sequence. The integration runs before any
// rank goroutine exists, so it checks ctx itself to keep long jobs
// cancellable during the recording.
func recordSimTrace(ctx context.Context, cfg *Config, syncSet map[int]bool) (*simTrace, error) {
	sys, err := lammps.New(cfg.Lammps)
	if err != nil {
		return nil, err
	}
	tr := &simTrace{
		n:           sys.N,
		frameBytes:  sys.FrameBytes(),
		thermoBytes: sys.ThermoBytes(),
		steps:       make([]simStepTrace, cfg.Steps),
	}
	for step := 1; step <= cfg.Steps; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st := &tr.steps[step-1]
		st.integrate = sys.InitialIntegrate()
		if syncSet[step] {
			frame := sys.Snapshot()
			st.frame = &frame
			st.neighbor = sys.BuildNeighbors()
		} else if sys.NeedsRebuild() {
			st.rebuilt = true
			st.neighbor = sys.BuildNeighbors()
		}
		w := sys.ComputeForces()
		w.Add(sys.FinalIntegrate())
		st.force = w
		st.ke = sys.KineticEnergy()
		st.pe = sys.PotentialEnergy()
	}
	tr.finalEnergy = sys.TotalEnergy()
	return tr, nil
}
