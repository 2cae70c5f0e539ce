// Episode-invariant precompute and pooled episode state for the cosim
// driver. A JobState captures everything about a co-simulated job that
// does not depend on the acting policy, the power budget or the initial
// caps: the synchronization schedule, the per-interval workload phase
// tables, the modeled allocator overhead and the (validated) cluster
// configuration. An Episode adds the mutable per-run state — the node
// population and the driver's scratch slices — and can run any number
// of episodes back to back, each byte-identical to a fresh cosim.Run
// with the same Config (the rollout goldens pin this).
//
// The split mirrors what simtrace.go/anatrace.go did inside the insitu
// driver: the search layer (internal/rollout) builds one JobState per
// distinct (workload, seeds, noise, faults, classes) key and shares it
// read-only across every grid point that differs only in budget,
// window or policy, while each worker owns its Episodes.
package cosim

import (
	"context"
	"fmt"

	"seesaw/internal/cluster"
	"seesaw/internal/core"
	"seesaw/internal/machine"
	"seesaw/internal/mpi"
	"seesaw/internal/trace"
	"seesaw/internal/units"
)

// intervalEnd is one entry of the synchronization schedule: the Verlet
// step the interval ends at and whether that end is a synchronization
// (the trailing partial interval is not).
type intervalEnd struct {
	step int
	sync bool
}

// policyComputeTime is the allocator's local compute charged per
// synchronization, on top of the modeled collectives.
const policyComputeTime = 2e-6

// JobState is the immutable, shareable precompute of one co-simulated
// job. It is safe for concurrent use by any number of Episodes.
type JobState struct {
	// cfg is the normalized configuration with the episode-varying
	// fields (Policy, Constraints, initial caps, CapMode) zeroed; those
	// arrive per run via EpisodeParams.
	cfg Config

	schedule []intervalEnd
	// simPhases[k] and anaPhases[k] are the partitions' phase tables for
	// schedule entry k (anaPhases[k] is nil for non-synchronizing
	// trailing intervals). Episodes read them without copying; the
	// driver never mutates a Phase in place.
	simPhases [][]machine.Phase
	anaPhases [][]machine.Phase

	overhead           units.Seconds
	nSim, nAna, nTotal int

	// noiseTraces[i] is node i's recorded jitter-draw sequence — the
	// standard normals its Box-Muller stream produces over one episode,
	// recorded once per job and replayed read-only by every Episode (nil
	// when memoization is off: faulted, traced or NoNoiseMemo jobs).
	// traceBytes is their storage footprint, for cache size accounting.
	noiseTraces [][]float64
	traceBytes  int64
}

// NewJobState validates the workload and precomputes the job's
// episode-invariant tables. The Policy, Constraints, InitialSimCap,
// InitialAnaCap and CapMode fields of cfg are ignored — they are
// episode parameters, supplied to Episode.Run.
func NewJobState(cfg Config) (*JobState, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cost == (mpi.CostModel{}) {
		cfg.Cost = mpi.DefaultCost()
	}
	cfg.Policy = nil
	cfg.Constraints = core.Constraints{}
	cfg.InitialSimCap, cfg.InitialAnaCap = 0, 0
	cfg.CapMode = CapNone

	spec := cfg.Spec
	st := &JobState{
		cfg:    cfg,
		nSim:   spec.SimNodes,
		nAna:   spec.AnaNodes,
		nTotal: spec.SimNodes + spec.AnaNodes,
	}
	for _, s := range spec.SyncSchedule() {
		st.schedule = append(st.schedule, intervalEnd{step: s, sync: true})
	}
	if len(st.schedule) == 0 {
		return nil, fmt.Errorf("cosim: workload has no synchronization steps")
	}
	// A trailing partial interval covers Verlet steps after the last
	// synchronization.
	if last := st.schedule[len(st.schedule)-1].step; last < spec.Steps {
		st.schedule = append(st.schedule, intervalEnd{step: spec.Steps})
	}

	st.simPhases = make([][]machine.Phase, len(st.schedule))
	st.anaPhases = make([][]machine.Phase, len(st.schedule))
	prev := 0
	for i, iv := range st.schedule {
		st.simPhases[i] = spec.SimIntervalIdx(prev, iv.step, i)
		if iv.sync {
			st.anaPhases[i] = spec.AnaInterval(iv.step)
		}
		prev = iv.step
	}

	// Allocator overhead per synchronization: the measurement Allgather
	// and the cap Bcast over all nodes, plus the policy's local compute.
	st.overhead = cfg.Cost.CollectiveCost(st.nTotal, 32*st.nTotal) +
		cfg.Cost.CollectiveCost(st.nTotal, 8*st.nTotal) +
		policyComputeTime

	// Noise-trace memoization: the jitter draws a node consumes over an
	// episode depend only on the phase schedule and the run seed — never
	// on caps, budget or policy — so one recorded sequence serves every
	// grid point sharing this job. Fault plans shift work between nodes
	// (work-scaling does not commute with replay slicing) and traced
	// runs are one-off figure generation, so both keep the live RNG
	// path, mirroring the RunTrusted rule.
	if cfg.Faults.Empty() && !cfg.TraceSegments && !cfg.NoNoiseMemo {
		st.recordNoiseTraces()
	}
	return st, nil
}

// recordNoiseTraces records each node's per-episode jitter-draw
// sequence. The draw count is derived from the same phase tables the
// episodes execute: one draw per non-empty phase execution, plus one
// for the power-reading ripple when PowerSigma is active. Device
// adaptation rescales a nominal duration but never zeroes it, so the
// raw tables count for every device class.
func (st *JobState) recordNoiseTraces() {
	perExec := 1
	if st.cfg.Noise.PowerSigma > 0 {
		perExec = 2
	}
	countDraws := func(tables [][]machine.Phase) int {
		n := 0
		for _, phs := range tables {
			for i := range phs {
				if phs[i].Nominal != 0 {
					n += perExec
				}
			}
		}
		return n
	}
	drawsSim := countDraws(st.simPhases)
	drawsAna := countDraws(st.anaPhases)
	// The cluster layer falls back to the job seed when no run seed is
	// configured; the recorder must mirror that to tap the same streams.
	runSeed := st.cfg.RunSeed
	if runSeed == 0 {
		runSeed = st.cfg.Seed
	}
	st.noiseTraces = make([][]float64, st.nTotal)
	for i := range st.noiseTraces {
		draws := drawsSim
		if i >= st.nSim {
			draws = drawsAna
		}
		st.noiseTraces[i] = machine.JitterTrace(runSeed, i, draws)
		st.traceBytes += int64(draws) * 8
	}
}

// TraceBytes returns the recorded noise traces' storage footprint in
// bytes (zero when memoization is off). The state cache uses it to
// bound total memo memory.
func (st *JobState) TraceBytes() int64 { return st.traceBytes }

// EpisodeParams are the per-episode knobs of one run: the acting policy
// and the power-budget configuration. Everything else about the job
// lives in the shared JobState.
type EpisodeParams struct {
	// Policy allocates power at each synchronization; nil means static.
	Policy core.Policy
	// Constraints carry the global budget and per-node cap range.
	Constraints core.Constraints
	// InitialSimCap and InitialAnaCap are per-node starting caps; zero
	// means an even split of the budget.
	InitialSimCap, InitialAnaCap units.Watts
	// CapMode selects the RAPL cap types.
	CapMode CapMode
}

// Episode owns the mutable state of one worker's runs over a JobState:
// the node population and the driver's scratch slices. Run may be
// called any number of times; each call resets the cluster and replays
// the job from scratch. An Episode is not safe for concurrent use.
type Episode struct {
	st *JobState
	cl *cluster.Cluster

	// nodeSim[i] and nodeAna[i] are node i's model-adapted phase
	// tables (shared per distinct device model): the fault-free run
	// loop executes them directly, skipping the per-execution
	// adaptation and phase copies RunTrusted performs.
	nodeSim [][][]machine.Phase
	nodeAna [][][]machine.Phase

	busy       []units.Seconds
	measures   []core.NodeMeasure
	lastEnergy []units.Joules
	used       bool

	// clock is the running episode's virtual time. It lives on the
	// Episode so the telemetry clock closure can read it without moving
	// a Run local to the heap every episode.
	clock units.Seconds
}

// adaptTables returns the model-adapted copy of per-interval phase
// tables. Adapting once per job is byte-identical to RunTrusted's
// per-execution adaptation (Adapt is deterministic per model).
func adaptTables(m machine.Model, tables [][]machine.Phase) [][]machine.Phase {
	out := make([][]machine.Phase, len(tables))
	for i, phs := range tables {
		if phs == nil {
			continue
		}
		adapted := make([]machine.Phase, len(phs))
		for k, ph := range phs {
			adapted[k] = m.Adapt(ph)
		}
		out[i] = adapted
	}
	return out
}

// NewEpisode builds the job's node population for one worker. The
// phase tables are validated here against every device model present,
// once, so the run loop can use the trusted execution path (an invalid
// phase panics, preserving machine.Node.Run's contract).
func (st *JobState) NewEpisode() (*Episode, error) {
	cl, err := cluster.New(cluster.Config{
		SimNodes:      st.nSim,
		AnaNodes:      st.nAna,
		Rapl:          st.cfg.Rapl,
		Machine:       st.cfg.Machine,
		Noise:         st.cfg.Noise,
		Classes:       st.cfg.Classes,
		ClassRegistry: st.cfg.ClassRegistry,
		JobSeed:       st.cfg.Seed,
		RunSeed:       st.cfg.RunSeed,
		Faults:        st.cfg.Faults,
		Telemetry:     st.cfg.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	type tables struct{ sim, ana [][]machine.Phase }
	byModel := map[machine.Model]*tables{}
	nodeSim := make([][][]machine.Phase, cl.Size())
	nodeAna := make([][][]machine.Phase, cl.Size())
	for i := 0; i < cl.Size(); i++ {
		m := cl.Node(i).Model()
		tb := byModel[m]
		if tb == nil {
			for _, tbl := range [2][][]machine.Phase{st.simPhases, st.anaPhases} {
				for _, phs := range tbl {
					for _, ph := range phs {
						if err := m.ValidatePhase(ph); err != nil {
							panic(err)
						}
					}
				}
			}
			tb = &tables{sim: adaptTables(m, st.simPhases), ana: adaptTables(m, st.anaPhases)}
			byModel[m] = tb
		}
		nodeSim[i], nodeAna[i] = tb.sim, tb.ana
	}
	// Memoized jobs replay the recorded draw sequences: the node reads
	// its shared trace slice instead of advancing its live Box-Muller
	// stream, and cluster.Reset rewinds the replay cursor per episode.
	if st.noiseTraces != nil {
		for i := 0; i < cl.Size(); i++ {
			cl.Node(i).SetNoiseTrace(st.noiseTraces[i])
		}
	}
	return &Episode{
		st:         st,
		cl:         cl,
		nodeSim:    nodeSim,
		nodeAna:    nodeAna,
		busy:       make([]units.Seconds, st.nTotal),
		measures:   make([]core.NodeMeasure, st.nTotal),
		lastEnergy: make([]units.Joules, st.nTotal),
	}, nil
}

// Run executes one episode. The context is checked at every
// synchronization interval: cancelling it makes Run return ctx.Err()
// promptly with no partial Result. The returned Result owns all its
// storage; nothing in it aliases the Episode's pooled scratch state.
func (ep *Episode) Run(ctx context.Context, prm EpisodeParams) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st := ep.st
	cfg := &st.cfg
	nSim, nTotal := st.nSim, st.nTotal

	pol := prm.Policy
	if pol == nil {
		pol = core.NewStatic()
	}
	if prm.CapMode != CapNone {
		if err := prm.Constraints.Validate(nTotal); err != nil {
			return nil, err
		}
		even := core.EvenSplit(prm.Constraints, nTotal)
		if prm.InitialSimCap == 0 {
			prm.InitialSimCap = even
		}
		if prm.InitialAnaCap == 0 {
			prm.InitialAnaCap = even
		}
	}

	cl := ep.cl
	if ep.used {
		cl.Reset()
	}
	ep.used = true
	busy, measures, lastEnergy := ep.busy, ep.measures, ep.lastEnergy
	for i := range lastEnergy {
		lastEnergy[i] = 0
	}

	ep.clock = 0
	policy := pol
	if cfg.Telemetry != nil {
		policy = core.Instrument(pol, cfg.Telemetry, func() float64 { return float64(ep.clock) })
	}
	// Install initial caps.
	if prm.CapMode != CapNone {
		for i := 0; i < nTotal; i++ {
			cap := prm.InitialAnaCap
			if cl.Role(i) == core.RoleSimulation {
				cap = prm.InitialSimCap
			}
			cl.Node(i).RAPL().SetLongCap(cap)
			if prm.CapMode == CapLongShort {
				cl.Node(i).RAPL().SetShortCap(cap)
			}
		}
	}

	overhead := st.overhead
	res := &Result{
		SyncLog:         &trace.SyncLog{Records: make([]trace.SyncRecord, 0, len(st.schedule))},
		OverheadPerSync: overhead,
	}
	var carryOverhead units.Seconds

	// Idle-trough handles resolved once per partition: the per-node
	// observation inside the synchronization loop must not pay a family
	// label lookup (and a Role→string conversion) per node per interval.
	idleSimM := cfg.Telemetry.IdleWaitMetric(core.RoleSimulation.String())
	idleAnaM := cfg.Telemetry.IdleWaitMetric(core.RoleAnalysis.String())

	// Fault-free runs take a lock-free fast path through the health
	// view: with an empty plan every node stays Healthy and alive and
	// the work scale is 1, so the per-node mutex reads of the cluster's
	// health state (three per node per interval) are pure overhead.
	faultFree := cfg.Faults.Empty()
	// The pre-adapted execute path additionally requires segment tracing
	// off: it does not collect Segments (tracing runs are one-off figure
	// generation, not search workloads).
	fast := faultFree && !cfg.TraceSegments

	for syncIdx, iv := range st.schedule {
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		// 0. Fault plan: transitions planned for this interval fire
		// before it executes. A kill shifts the dead node's share of the
		// partition's domain-decomposed work onto the survivors.
		scale := [2]float64{}
		if faultFree {
			scale[core.RoleSimulation] = 1
			scale[core.RoleAnalysis] = 1
		} else {
			if trs := cl.Advance(ep.clock, syncIdx+1); len(trs) > 0 {
				res.FaultLog = append(res.FaultLog, trs...)
			}
			scale[core.RoleSimulation] = cl.WorkScale(core.RoleSimulation)
			scale[core.RoleAnalysis] = cl.WorkScale(core.RoleAnalysis)
		}

		simPhases := st.simPhases[syncIdx]
		anaPhases := st.anaPhases[syncIdx]

		// 1. Execute every live node's interval.
		for i := 0; i < nTotal; i++ {
			n := cl.Node(i)
			if !faultFree && !cl.Alive(i) {
				busy[i] = 0
				continue
			}
			var t units.Seconds
			if fast {
				// Pre-adapted tables: no per-execution adaptation, no
				// Phase copy, no fault work-scaling (scale is 1).
				phases := ep.nodeSim[i][syncIdx]
				if cl.Role(i) == core.RoleAnalysis {
					phases = ep.nodeAna[i][syncIdx]
				}
				for k := range phases {
					t += n.RunAdapted(&phases[k], &cfg.Noise).Duration
				}
			} else {
				// Fault work-scaling multiplies the *raw* nominal before
				// adaptation (scale*(nominal/speed) != (scale*nominal)/speed
				// in floating point), so faulted — and traced — runs keep
				// the original RunTrusted path bit for bit.
				phases := simPhases
				if cl.Role(i) == core.RoleAnalysis {
					phases = anaPhases
				}
				for _, ph := range phases {
					if s := scale[cl.Role(i)]; s != 1 {
						ph.Nominal = units.Seconds(float64(ph.Nominal) * s)
					}
					exec := n.RunTrusted(ph, cfg.Noise)
					t += exec.Duration
					if cfg.TraceSegments && (i == 0 || i == nSim) {
						seg := Segment{Start: ep.clock + t - exec.Duration, Duration: exec.Duration, Power: exec.Power}
						if i == 0 {
							res.SimSegments = append(res.SimSegments, seg)
						} else {
							res.AnaSegments = append(res.AnaSegments, seg)
						}
					}
				}
			}
			// The previous allocation's overhead is part of this
			// interval's runtime (the paper's measurement convention).
			t += carryOverhead
			busy[i] = t
		}

		// 2. Synchronization: the slower partition sets the wall time.
		var wall units.Seconds
		for _, t := range busy {
			if t > wall {
				wall = t
			}
		}
		// 3. Idle the waiting nodes up to the barrier and take the
		// measurements, exactly as PoLiMER reports them, in one pass
		// (the two are node-local: a node's energy is untouched by its
		// neighbours' idling, so idle-then-measure per node is bit-
		// identical to idling all nodes then measuring all nodes). The
		// epoch time additionally folds in part of the synchronization
		// wait, as a loop-level monitor (GEOPM) would observe it. Dead
		// nodes report zeroed measures (Cap 0 keeps the allocators from
		// re-injecting a corpse's stale cap into the budget pool).
		for i := 0; i < nTotal; i++ {
			n := cl.Node(i)
			if !faultFree && !cl.Alive(i) {
				measures[i] = core.NodeMeasure{NodeID: i, Health: core.Dead, Role: cl.Role(i)}
				continue
			}
			if wait := wall - busy[i]; wait > 0 {
				exec := n.Idle(wait)
				idleM := idleSimM
				if cl.Role(i) == core.RoleAnalysis {
					idleM = idleAnaM
				}
				if idleM != nil {
					idleM.Observe(float64(wait))
				}
				if cfg.TraceSegments && (i == 0 || i == nSim) {
					seg := Segment{Start: ep.clock + busy[i], Duration: wait, Power: exec.Power}
					if i == 0 {
						res.SimSegments = append(res.SimSegments, seg)
					} else {
						res.AnaSegments = append(res.AnaSegments, seg)
					}
				}
			}
			health := core.Healthy
			if !faultFree {
				health = cl.Health(i)
			}
			en := n.RAPL().Energy()
			e := en - lastEnergy[i]
			lastEnergy[i] = en
			// Field-wise writes into the pooled slice: a composite
			// literal here materializes a temporary NodeMeasure and
			// copies it in (a measurable duffcopy at scale).
			m := &measures[i]
			m.NodeID = i
			m.Health = health
			m.Role = cl.Role(i)
			m.Time = wall // allocator-to-allocator interval: work + sync wait
			m.BusyTime = busy[i]
			m.EpochTime = busy[i] + (wall-busy[i])*epochWaitShare
			m.Power = units.AvgPower(e, wall)
			m.Cap = n.RAPL().LongCap()
			// Zero on a homogeneous cluster, so single-class runs
			// take the allocators' legacy uniform path unchanged.
			m.NodeCapability = cl.Capability(i)
		}
		ep.clock += wall
		rec := buildRecord(syncIdx+1, measures, nSim, overhead)
		res.SyncLog.Add(rec)
		if cfg.Telemetry != nil {
			cfg.Telemetry.SyncBarrier(float64(ep.clock), rec.Step,
				float64(wall), float64(rec.SimTime), float64(rec.AnaTime), rec.Slack(), float64(overhead))
			// Job-level budget check: summed measured power against the
			// global budget (small tolerance for enforcement slack). Dead
			// nodes draw nothing, so the sum covers live nodes only.
			if prm.CapMode != CapNone && prm.Constraints.Budget > 0 {
				aliveSim, aliveAna := cl.AliveCounts()
				total := float64(rec.SimPower)*float64(aliveSim) + float64(rec.AnaPower)*float64(aliveAna)
				if budget := float64(prm.Constraints.Budget); total > budget*1.01 {
					cfg.Telemetry.BudgetViolation(float64(ep.clock), "job", total, budget, true)
				}
			}
		}

		// 4. Policy invocation and cap writes.
		carryOverhead = 0
		if iv.sync && prm.CapMode != CapNone {
			caps := policy.Allocate(syncIdx+1, measures)
			if caps != nil {
				for i := 0; i < nTotal; i++ {
					n := cl.Node(i)
					if (faultFree || cl.Alive(i)) && caps[i] > 0 && caps[i] != n.RAPL().LongCap() {
						n.RAPL().SetLongCap(caps[i])
						if prm.CapMode == CapLongShort {
							n.RAPL().SetShortCap(caps[i])
						}
					}
				}
			}
			carryOverhead = overhead
		}
	}

	res.TotalTime = ep.clock
	res.FinalCaps = make([]units.Watts, nTotal)
	for i := 0; i < nTotal; i++ {
		res.TotalEnergy += cl.Node(i).RAPL().Energy()
		res.FinalCaps[i] = cl.Node(i).RAPL().LongCap()
	}
	res.AliveSim, res.AliveAna = cl.AliveCounts()
	return res, nil
}
