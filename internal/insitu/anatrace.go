package insitu

import (
	"seesaw/internal/analysis"
	"seesaw/internal/lammps"
)

// anaTrace is the recording of the analysis-side compute, the analysis
// partition's counterpart to simTrace.
//
// Every analysis rank instantiates the same task set and consumes the
// byte-identical replayed frame stream; the only thing that varies
// between analysis ranks is how many simulation sources feed them
// (floor or ceil of SimRanks/AnaRanks — at most two distinct counts).
// An analysis's state after a synchronization depends only on the
// sequence of frames it has consumed, so two ranks with the same source
// count hold bitwise-identical analysis state at every step. The driver
// therefore integrates each distinct source count once per job and
// replays the recorded work counts and final result vectors on every
// rank, instead of repeating the same floating-point kernels AnaRanks
// times.
//
// The simulation recorder feeds each synchronization step's frame to
// every shape (consume) before it publishes the step. The recording
// makes exactly the Consume calls a rank running its own kernels would
// make, in the same order (source-major, then task order, due tasks
// only), against the same frame values (analyses never mutate frames,
// so it consumes the recorded frames directly), so every recorded work
// count and result float is the float the per-rank run would have
// produced. The golden tests pin the job results to bytes and digests
// that per-rank runs produced.
type anaTrace struct {
	// specs resolves each configured analysis's constant profile once.
	specs []anaTaskSpec
	// due[si] indexes specs due at synchronization step si (aligned with
	// the job's sync schedule); shared by recorder and replay.
	due [][]int
	// recordings maps a rank's source count to its recording.
	recordings map[int]*anaRecording
}

// anaTaskSpec is one configured analysis's replay-constant data.
type anaTaskSpec struct {
	name string
	prof analysis.Profile
}

// anaRecording is the recorded compute of one analysis rank shape.
type anaRecording struct {
	// tasks are the shape's analyses; only the recorder touches them.
	tasks []analysis.Analysis
	// work[si] holds the Consume work counts of synchronization step si,
	// flattened source-major in due-task order.
	work [][]lammps.WorkCount
	// results holds each analysis's final output vector, written before
	// the last step is published.
	results map[string][]float64
}

// newAnaTrace builds the due table and one empty recording per distinct
// analysis-rank shape, ready for the simulation recorder to feed.
func newAnaTrace(cfg *Config, syncSchedule []int, sources [][]int) (*anaTrace, error) {
	at := &anaTrace{
		specs:      make([]anaTaskSpec, 0, len(cfg.Analyses)),
		due:        make([][]int, len(syncSchedule)),
		recordings: make(map[int]*anaRecording),
	}
	for _, name := range cfg.Analyses {
		a, err := analysis.New(name)
		if err != nil {
			return nil, err
		}
		at.specs = append(at.specs, anaTaskSpec{name: name, prof: a.Profile()})
	}
	for si, step := range syncSchedule {
		for ti, name := range cfg.Analyses {
			if step%cfg.analysisInterval(name) == 0 {
				at.due[si] = append(at.due[si], ti)
			}
		}
	}
	for _, src := range sources {
		k := len(src)
		if _, ok := at.recordings[k]; ok {
			continue
		}
		rec := &anaRecording{
			tasks:   make([]analysis.Analysis, 0, len(cfg.Analyses)),
			work:    make([][]lammps.WorkCount, len(syncSchedule)),
			results: make(map[string][]float64, len(cfg.Analyses)),
		}
		for _, name := range cfg.Analyses {
			a, err := analysis.New(name)
			if err != nil {
				return nil, err
			}
			rec.tasks = append(rec.tasks, a)
		}
		at.recordings[k] = rec
	}
	return at, nil
}

// consume runs every shape's due Consume calls on synchronization step
// si's frame, mirroring runAnaRank's Consume sequence.
func (at *anaTrace) consume(si int, frame *lammps.Frame) {
	d := at.due[si]
	for nsrc, rec := range at.recordings {
		work := make([]lammps.WorkCount, 0, nsrc*len(d))
		for s := 0; s < nsrc; s++ {
			for _, ti := range d {
				work = append(work, rec.tasks[ti].Consume(frame))
			}
		}
		rec.work[si] = work
	}
}

// finish records each shape's final result vectors.
func (at *anaTrace) finish() {
	for _, rec := range at.recordings {
		for _, t := range rec.tasks {
			rec.results[t.Name()] = append([]float64(nil), t.Result()...)
		}
	}
}
