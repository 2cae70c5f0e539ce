package insitu

import (
	"context"
	"sync/atomic"

	"seesaw/internal/lammps"
	"seesaw/internal/mpi"
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
//
// The recording streams: one recorder goroutine (record) runs beside the
// rank goroutines and publishes each step once its fields are written,
// and a rank reads a step only after wait has seen it published.
type simTrace struct {
	n           int
	frameBytes  int
	thermoBytes int
	steps       []simStepTrace
	// finalEnergy is written before the last step is published.
	finalEnergy float64

	// published counts the recorded steps; ready[k] is closed once step
	// k+1 is published. A rank takes the atomic load when the recorder
	// is ahead and parks on the channel only when it is not.
	published atomic.Int64
	ready     []chan struct{}
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

// newSimTrace returns an empty recording of steps steps of sys.
func newSimTrace(sys *lammps.System, steps int) *simTrace {
	tr := &simTrace{
		n:           sys.N,
		frameBytes:  sys.FrameBytes(),
		thermoBytes: sys.ThermoBytes(),
		steps:       make([]simStepTrace, steps),
		ready:       make([]chan struct{}, steps),
	}
	for k := range tr.ready {
		tr.ready[k] = make(chan struct{})
	}
	return tr
}

// record integrates sys through the job's step schedule, mirroring
// runSimRank's call sequence. At a synchronization step it also runs
// the analysis recording's Consume calls on the step's frame, so the
// analysis side needs no pass of its own. Each step's writes, including
// the analysis work, precede its publication. record runs on its own
// goroutine while the ranks replay the steps it has published. Once ctx
// is done it publishes nothing more, so a rank parked on the step in
// progress leaves through ctx (see wait).
func (tr *simTrace) record(ctx context.Context, sys *lammps.System, syncSet map[int]bool, at *anaTrace) {
	si := 0
	for step := 1; step <= len(tr.steps); step++ {
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
		if st.frame != nil {
			at.consume(si, st.frame)
			si++
		}
		if step == len(tr.steps) {
			tr.finalEnergy = sys.TotalEnergy()
			at.finish()
		}
		if ctx.Err() != nil {
			return
		}
		tr.published.Store(int64(step))
		close(tr.ready[step-1])
	}
}

// wait returns once step is published. A rank that finds the step
// unpublished parks until the recorder publishes it; if the job's
// context ends first, the rank leaves through r.Fail, which the mpi
// runtime treats as an orderly unwind. After a kill the recorder keeps
// publishing, so a parked rank wakes within one step and unwinds at its
// next collective.
func (tr *simTrace) wait(ctx context.Context, r *mpi.Rank, step int) {
	if tr.published.Load() >= int64(step) {
		return
	}
	select {
	case <-tr.ready[step-1]:
	case <-ctx.Done():
		r.Fail(ctx.Err())
	}
}
