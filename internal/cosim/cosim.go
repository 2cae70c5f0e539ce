// Package cosim is the scale-level co-simulation driver for the paper's
// 128-1024-node experiments. It advances one space-shared in-situ job —
// n simulation nodes plus n analysis nodes, each a machine.Node with its
// own simulated RAPL domain — synchronization interval by
// synchronization interval:
//
//  1. every node executes its interval's phases (from the workload
//     model), yielding per-node busy times and drawn power;
//  2. the slower partition sets the interval's wall time; faster nodes
//     idle at synchronization, drawing idle power (the troughs of
//     Figure 1);
//  3. per-node (time, power, cap) measurements — exactly what PoLiMER
//     reports — go to the configured policy, which may emit new caps;
//  4. caps are written to each node's RAPL domain (taking effect after
//     the actuation latency) and the allocator's communication cost is
//     charged to the next interval.
//
// Unlike package insitu (goroutine-per-rank over the message-passing
// runtime, real mini-MD), cosim is sequential and uses the workload
// tables, making hundreds of multi-policy, multi-seed experiment cells
// cheap while exercising the same Policy implementations.
package cosim

import (
	"context"

	"seesaw/internal/cluster"
	"seesaw/internal/core"
	"seesaw/internal/fault"
	"seesaw/internal/machine"
	"seesaw/internal/telemetry"
	"seesaw/internal/trace"
	"seesaw/internal/units"
	"seesaw/internal/workload"
)

// CapMode selects which RAPL caps a job installs (Table I's cap types).
type CapMode int

// Cap modes.
const (
	// CapNone runs uncapped (Table I "None").
	CapNone CapMode = iota
	// CapLong installs only the long-term cap (the paper's main
	// configuration, Section VII-A).
	CapLong
	// CapLongShort installs both long- and short-term caps (Table I
	// "Long and Short"): the budget is guaranteed but RAPL regulates
	// slightly below the request and variability increases.
	CapLongShort
)

// Config describes one co-simulated job.
type Config struct {
	// Spec is the workload (node counts, dim, j, steps, analyses).
	Spec workload.Spec
	// Policy allocates power at each synchronization; nil means static.
	Policy core.Policy
	// Constraints carry the global budget and per-node cap range.
	Constraints core.Constraints
	// InitialSimCap and InitialAnaCap are per-node starting caps; zero
	// means an even split of the budget (the paper's baseline).
	InitialSimCap, InitialAnaCap units.Watts
	// CapMode selects the RAPL cap types (CapLong by default for
	// capped runs; use CapNone for uncapped variability rows).
	CapMode CapMode
	// Seed drives node noise deterministically. Two runs with the same
	// seed share node placement (run-to-run); different seeds model
	// different jobs (job-to-job).
	Seed uint64
	// RunSeed, when non-zero, separates per-run jitter from the
	// job-level Seed: repeated runs inside one job share Seed (node
	// skews) but differ in RunSeed — the paper's run-to-run setting
	// (Table I).
	RunSeed uint64
	// Noise configures run-to-run and job-to-job variability
	// magnitudes; zero disables noise entirely.
	Noise machine.NoiseModel
	// Classes assigns device classes to node ids (machine.ClassMap
	// grammar); nil keeps the cluster homogeneous. The allocators see
	// each node's class capability and weight its budget share.
	Classes *machine.ClassMap
	// TraceSegments, when true, records (time, power) segments for the
	// first node of each partition so power traces can be resampled
	// (Figure 1).
	TraceSegments bool
	// Faults is an optional deterministic fault plan: node kills and
	// slow-node excursions keyed to the synchronization schedule (an
	// event planned for sync k is in force before interval k executes).
	// Killed nodes stop executing and draw no power; their share of the
	// partition's domain-decomposed work shifts onto the survivors, and
	// the policy sees them as Dead measures. Nil means a fault-free run.
	Faults *fault.Plan
	// Telemetry, when non-nil, receives metrics and structured events
	// from the run: cap writes and throttling per partition (from each
	// node's RAPL domain), one SyncBarrier per interval, idle troughs,
	// policy decisions, budget violations and node faults. Nil disables
	// all instrumentation at no cost. Like Policy it is an episode
	// parameter: Run and FindBestStaticSplit pass it to the episode as
	// EpisodeParams.Telemetry, and NewJobState ignores it.
	Telemetry *telemetry.Hub
}

// Segment is a span of constant power on one node, for trace resampling.
type Segment struct {
	Start    units.Seconds
	Duration units.Seconds
	Power    units.Watts
}

// Result summarizes a co-simulated job.
type Result struct {
	// TotalTime is the job's main-loop wall time.
	TotalTime units.Seconds
	// SyncLog records each synchronization interval.
	SyncLog *trace.SyncLog
	// TotalEnergy sums all nodes' energy.
	TotalEnergy units.Joules
	// OverheadPerSync is the modeled allocator overhead charged at each
	// synchronization (communication + actuation bookkeeping).
	OverheadPerSync units.Seconds
	// SimSegments and AnaSegments are power segments of the first node
	// of each partition (only when Config.TraceSegments).
	SimSegments, AnaSegments []Segment
	// FinalCaps are the per-node caps at the end of the run.
	FinalCaps []units.Watts
	// FaultLog records the health transitions the fault plan fired, in
	// firing order (empty for fault-free runs).
	FaultLog []cluster.Transition
	// AliveSim and AliveAna are the partitions' live sizes at the end.
	AliveSim, AliveAna int
}

// Run executes the co-simulation. The context is checked at every
// synchronization interval: cancelling it makes Run return ctx.Err()
// promptly with no partial Result.
//
// Run is the one-shot composition of the reusable pieces in
// jobstate.go: it builds the job's episode-invariant state, one node
// population, and runs a single episode. Callers that evaluate many
// policies or budgets on one job (the rollout search layer) hold the
// JobState and Episode themselves and amortize everything but the
// episode loop.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	// Recording noise traces costs exactly one episode's worth of live
	// draws; a one-shot run would pay it without ever replaying, so it
	// draws live.
	st, err := newJobState(cfg, false)
	if err != nil {
		return nil, err
	}
	ep, err := st.NewEpisode()
	if err != nil {
		return nil, err
	}
	return ep.Run(ctx, EpisodeParams{
		Policy:        cfg.Policy,
		Constraints:   cfg.Constraints,
		InitialSimCap: cfg.InitialSimCap,
		InitialAnaCap: cfg.InitialAnaCap,
		CapMode:       cfg.CapMode,
		Telemetry:     cfg.Telemetry,
	})
}

// SampleSegments resamples power segments at a fixed period (e.g. the
// 200 ms of Figure 1), returning one power value per sample point.
func SampleSegments(segs []Segment, period units.Seconds) []trace.Sample {
	if period <= 0 || len(segs) == 0 {
		return nil
	}
	var out []trace.Sample
	end := segs[len(segs)-1].Start + segs[len(segs)-1].Duration
	si := 0
	for t := units.Seconds(0); t < end; t += period {
		for si < len(segs)-1 && segs[si].Start+segs[si].Duration <= t {
			si++
		}
		out = append(out, trace.Sample{Time: t, Value: float64(segs[si].Power)})
	}
	return out
}
