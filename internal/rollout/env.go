// Package rollout turns the deterministic co-simulation into a
// policy-evaluation environment (the ROADMAP's policy-search substrate).
// Any core.Policy — a registry allocator or a learned actor — runs in
// the loop at every synchronization, exactly as SeeSAw's allocator does
// inside the job:
//
//	env := rollout.NewEnv()
//	res, err := env.Rollout(ctx, spec, pol)
//
// A rollout is the existing cosim or workflow driver with the caller's
// policy plugged in, so it reproduces the report bytes of the same
// policy run inside the driver (the golden tests pin this, for fresh
// and pooled episodes alike). Space-shared episodes replay a pooled
// cosim.Episode over a shared cosim.JobState instead of rebuilding the
// node population per run, and the window loop does not allocate (see
// DESIGN.md, "Rollout fast path"). Batch fans a grid of points across
// the campaign engine, one pooled Env per worker, and reaches thousands
// of policy evaluations per second.
package rollout

import (
	"context"
	"fmt"
	"strconv"

	"seesaw/internal/core"
	"seesaw/internal/cosim"
	"seesaw/internal/fault"
	"seesaw/internal/machine"
	"seesaw/internal/telemetry"
	"seesaw/internal/trace"
	"seesaw/internal/units"
	"seesaw/internal/workflow"
	"seesaw/internal/workload"
)

// Spec describes one environment episode: a full co-simulated job minus
// the policy, which the caller passes to Rollout.
type Spec struct {
	// Workload is the job (node counts, dim, j, steps, analyses).
	Workload workload.Spec
	// Topology selects the driver: "" or "space-shared" runs the
	// classic two-partition cosim driver; any other registered topology
	// ("time-shared", "in-transit", "dag") runs the workflow engine on
	// the equivalent graph.
	Topology string
	// CapPerNode is the per-node budget (110 W, the paper's setting,
	// when zero) on the paper's 98-215 W cap range.
	CapPerNode units.Watts
	// Seed and RunSeed drive the noise streams (see cosim.Config).
	Seed, RunSeed uint64
	// Noise configures node variability; zero disables it.
	Noise machine.NoiseModel
	// Faults is an optional deterministic fault plan.
	Faults *fault.Plan
	// Classes assigns device classes to node ids (machine.ClassMap
	// grammar); nil keeps the cluster homogeneous.
	Classes *machine.ClassMap
	// Telemetry, when non-nil, instruments the underlying run. It is
	// an episode parameter like the budget: instrumented space-shared
	// episodes run on the pooled episode, the same path as plain ones,
	// and the job key does not name the hub.
	Telemetry *telemetry.Hub
}

// paper-default cap range, mirrored from the experiment harness.
const (
	defaultCapPerNode = units.Watts(110)
	defaultMinCap     = units.Watts(98)
	defaultMaxCap     = units.Watts(215)
)

// constraints spreads the per-node budget over physicalNodes nodes.
func (s Spec) constraints(physicalNodes int) core.Constraints {
	capPer := s.CapPerNode
	if capPer == 0 {
		capPer = defaultCapPerNode
	}
	return core.Constraints{
		Budget: capPer * units.Watts(physicalNodes),
		MinCap: defaultMinCap,
		MaxCap: defaultMaxCap,
	}
}

// jobKey identifies the episode-invariant part of a space-shared spec:
// everything cosim.NewJobState reads plus the cluster seeds and noise.
// Budget, window, policy and telemetry hub are episode parameters and
// stay out of the key, so a grid sweep over them shares one
// cosim.JobState (TestJobKeyCoversSpec pins the split). Every rollout
// builds the key, so it is appended field by field: fmt's reflective
// %v allocates a varying number of objects per call, which
// TestRolloutZeroAllocs would read as the episode allocating.
func (s Spec) jobKey() string {
	w, nm := s.Workload, s.Noise
	b := make([]byte, 0, 192)
	b = append(b, 'n')
	b = strconv.AppendInt(b, int64(w.SimNodes), 10)
	b = append(b, '+')
	b = strconv.AppendInt(b, int64(w.AnaNodes), 10)
	b = append(b, "/dim"...)
	b = strconv.AppendInt(b, int64(w.Dim), 10)
	b = append(b, "/j"...)
	b = strconv.AppendInt(b, int64(w.J), 10)
	b = append(b, "/steps"...)
	b = strconv.AppendInt(b, int64(w.Steps), 10)
	b = append(b, "/an="...)
	for _, a := range w.Analyses {
		b = append(b, a.Name...)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(a.Interval), 10)
		b = append(b, ',')
	}
	b = append(b, "/nst="...)
	b = strconv.AppendBool(b, w.NoSetupTransient)
	b = append(b, "/seed="...)
	b = strconv.AppendUint(b, s.Seed, 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, s.RunSeed, 10)
	b = append(b, "/noise="...)
	for _, f := range [...]float64{nm.SkewSigma, nm.PowerEffSigma, nm.JitterSigma, nm.RunSigma, nm.DualRunSigma, nm.PowerSigma} {
		b = strconv.AppendFloat(b, f, 'g', -1, 64)
		b = append(b, ',')
	}
	b = append(b, "/faults="...)
	b = append(b, s.Faults.String()...)
	b = append(b, "/classes="...)
	b = append(b, s.Classes.String()...)
	return string(b)
}

// jobConfig assembles the space-shared job's cosim.Config: the fields
// jobKey names, which cosim.NewJobState reads.
func (s Spec) jobConfig() cosim.Config {
	return cosim.Config{
		Spec:    s.Workload,
		Seed:    s.Seed,
		RunSeed: s.RunSeed,
		Noise:   s.Noise,
		Faults:  s.Faults,
		Classes: s.Classes,
	}
}

// Result summarizes a finished episode, uniformly over both drivers.
type Result struct {
	// TotalTime is the job's main-loop wall time.
	TotalTime units.Seconds
	// TotalEnergy sums all nodes' energy.
	TotalEnergy units.Joules
	// SyncLog records each synchronization interval.
	SyncLog *trace.SyncLog
	// Cosim is the underlying driver result for space-shared episodes
	// (nil for workflow episodes); Workflow the converse.
	Cosim    *cosim.Result
	Workflow *workflow.Result
}

// Env is a rollout environment: it runs whole episodes with the
// caller's policy in the loop. The zero value is not usable; call
// NewEnv. An Env keeps the last space-shared job's cosim.Episode — node
// population and scratch — alive, so rolling out the same spec again,
// or one differing only in budget, replays that episode instead of
// rebuilding it, which is where batched rollout throughput comes from.
// Env is not safe for concurrent use; run one Env per worker.
type Env struct {
	cache *StateCache
	epKey string
	ep    *cosim.Episode
}

// NewEnv returns an environment with a private state cache.
func NewEnv() *Env { return NewEnvWith(nil) }

// NewEnvWith returns an environment sharing the given JobState cache;
// nil gets a private one. Batch workers share one cache so the per-job
// precompute is paid once per grid, not once per worker.
func NewEnvWith(cache *StateCache) *Env {
	if cache == nil {
		cache = NewStateCache()
	}
	return &Env{cache: cache}
}

// Rollout drives one full episode of spec on e with pol allocating
// power at every synchronization, on the caller's goroutine. The result
// is byte-identical to running pol inside the driver (the goldens pin
// this, for fresh and pooled episodes alike). Reusing one Env across
// Rollout calls keeps the pooled episode warm; it is how Batch workers
// run their cells and the subject of BenchmarkRollouts. A cancelled ctx
// makes Rollout return ctx.Err() and leaves the Env ready for the next
// episode.
func (e *Env) Rollout(ctx context.Context, spec Spec, pol core.Policy) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if spec.Topology != "" && spec.Topology != "space-shared" {
		return runWorkflow(ctx, spec, pol)
	}
	res, err := e.runPooled(ctx, spec, pol)
	if err != nil {
		return nil, err
	}
	return &Result{
		TotalTime:   res.TotalTime,
		TotalEnergy: res.TotalEnergy,
		SyncLog:     res.SyncLog,
		Cosim:       res,
	}, nil
}

// runPooled runs a space-shared episode on the Env's pooled
// cosim.Episode. The shared cache supplies the job's immutable
// precompute; the Episode is rebuilt only when the job key changes.
func (e *Env) runPooled(ctx context.Context, spec Spec, pol core.Policy) (*cosim.Result, error) {
	if key := spec.jobKey(); e.ep == nil || e.epKey != key {
		st, err := e.cache.state(key, spec.jobConfig())
		if err != nil {
			return nil, err
		}
		ep, err := st.NewEpisode()
		if err != nil {
			return nil, err
		}
		e.epKey, e.ep = key, ep
	}
	return e.ep.Run(ctx, cosim.EpisodeParams{
		Policy:      pol,
		Constraints: spec.constraints(spec.Workload.SimNodes + spec.Workload.AnaNodes),
		CapMode:     cosim.CapLong,
		Telemetry:   spec.Telemetry,
	})
}

// runWorkflow runs spec on the workflow engine over its topology's
// graph.
func runWorkflow(ctx context.Context, spec Spec, pol core.Policy) (*Result, error) {
	topo, err := workflow.Build(spec.Topology, workflow.Params{
		Nodes:    spec.Workload.SimNodes + spec.Workload.AnaNodes,
		Dim:      spec.Workload.Dim,
		J:        spec.Workload.J,
		Steps:    spec.Workload.Steps,
		Analyses: spec.Workload.Analyses,
	})
	if err != nil {
		return nil, fmt.Errorf("rollout: %w", err)
	}
	res, err := workflow.Run(ctx, workflow.Config{
		Graph:       topo.Graph,
		Steps:       spec.Workload.Steps,
		SyncEvery:   spec.Workload.J,
		Policy:      pol,
		Constraints: topo.ScaleCaps(spec.constraints(topo.PhysicalNodes)),
		Seed:        spec.Seed,
		RunSeed:     spec.RunSeed,
		Noise:       spec.Noise,
		Faults:      spec.Faults,
		Classes:     spec.Classes,
		Telemetry:   spec.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		TotalTime:   res.MainLoopTime,
		TotalEnergy: res.TotalEnergy,
		SyncLog:     res.SyncLog,
		Workflow:    res,
	}, nil
}
