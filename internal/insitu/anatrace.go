package insitu

import (
	"context"

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
// The recorder makes exactly the Consume calls a rank running its own
// kernels would make, in the same order (source-major, then task order,
// due tasks only), against the same frame values (analyses never mutate
// frames, so it consumes the recorded frames directly), so every
// recorded work count and result float is the float the per-rank run
// would have produced. The golden tests pin the job results to bytes
// and digests that per-rank runs produced.
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
	// work[si] holds the Consume work counts of synchronization step si,
	// flattened source-major in due-task order.
	work [][]lammps.WorkCount
	// results holds each analysis's final output vector.
	results map[string][]float64
}

// recordAnaTrace integrates each distinct analysis-rank shape through
// the synchronization schedule, mirroring runAnaRank's Consume
// sequence. Like recordSimTrace it runs before any rank goroutine
// exists and checks ctx between synchronization steps to keep long jobs
// cancellable.
func recordAnaTrace(ctx context.Context, cfg *Config, syncSchedule []int, sources [][]int, tr *simTrace) (*anaTrace, error) {
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
		rec, err := recordAnaShape(ctx, cfg, syncSchedule, at.due, k, tr)
		if err != nil {
			return nil, err
		}
		at.recordings[k] = rec
	}
	return at, nil
}

// recordAnaShape integrates one source-count shape through the job.
func recordAnaShape(ctx context.Context, cfg *Config, syncSchedule []int, due [][]int, nsrc int, tr *simTrace) (*anaRecording, error) {
	tasks := make([]analysis.Analysis, 0, len(cfg.Analyses))
	for _, name := range cfg.Analyses {
		a, err := analysis.New(name)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, a)
	}
	rec := &anaRecording{
		work:    make([][]lammps.WorkCount, len(syncSchedule)),
		results: make(map[string][]float64, len(tasks)),
	}
	for si, step := range syncSchedule {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d := due[si]
		if len(d) == 0 || nsrc == 0 {
			continue
		}
		frame := tr.steps[step-1].frame
		work := make([]lammps.WorkCount, 0, nsrc*len(d))
		for s := 0; s < nsrc; s++ {
			for _, ti := range d {
				work = append(work, tasks[ti].Consume(frame))
			}
		}
		rec.work[si] = work
	}
	for _, t := range tasks {
		rec.results[t.Name()] = append([]float64(nil), t.Result()...)
	}
	return rec, nil
}
