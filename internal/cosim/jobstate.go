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
	"seesaw/internal/rng"
	"seesaw/internal/telemetry"
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
	// fields (Policy, Constraints, initial caps, CapMode, Telemetry)
	// zeroed; those arrive per run via EpisodeParams.
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

	// noise is the job's recorded jitter draws — the standard normals
	// every node's Box-Muller stream produces over one episode, recorded
	// once per job and replayed read-only by every Episode (nil when
	// memoization is off: faulted jobs and one-shot Run). It is
	// interval-major: noise[k] holds interval k's draws as one
	// contiguous run, which the window loop reads front to back.
	// traceBytes is their storage footprint, for cache size accounting.
	noise      []noiseWindow
	traceBytes int64
}

// noiseWindow is one interval's recorded draws: every simulation node's
// sim draws in node order, then every analysis node's ana draws. A
// partition's per-node count is uniform because every node of a
// partition executes the same raw phase table, and device adaptation
// rescales a nominal duration but never zeroes it, so each node draws
// for the same phases whatever its class. The counts must be exact,
// because the windows are positional, and Episode.Run checks them: an
// under-count makes the node read past its window and an over-count
// leaves draws unread, and both panic. Each interval is an
// allocation of its own (about 70 KiB at 1024 nodes): one job-sized
// block (28 MiB) cannot reuse heap pages that smaller allocations have
// fragmented, and it raised the search benchmark's resident set by 9%.
type noiseWindow struct {
	draws    []float64
	sim, ana int
}

// NewJobState validates the workload and precomputes the job's
// episode-invariant tables, recording the noise memo when the job has
// no faults. The Policy, Constraints, InitialSimCap, InitialAnaCap,
// CapMode and Telemetry fields of cfg are ignored — they are episode
// parameters, supplied to Episode.Run.
func NewJobState(cfg Config) (*JobState, error) {
	return newJobState(cfg, cfg.Faults.Empty())
}

// newJobState is NewJobState with the noise memo recorded only when
// memo is set; one-shot Run leaves it unset and draws live.
func newJobState(cfg Config, memo bool) (*JobState, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	cfg.Policy = nil
	cfg.Constraints = core.Constraints{}
	cfg.InitialSimCap, cfg.InitialAnaCap = 0, 0
	cfg.CapMode = CapNone
	cfg.Telemetry = nil

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
	cost := mpi.DefaultCost()
	st.overhead = cost.CollectiveCost(st.nTotal, 32*st.nTotal) +
		cost.CollectiveCost(st.nTotal, 8*st.nTotal) +
		policyComputeTime

	// Noise-trace memoization: the jitter draws a node consumes over an
	// episode depend only on the phase schedule and the run seed — never
	// on caps, budget or policy — so one recorded sequence serves every
	// grid point sharing this job. Faults do not change the draws either
	// (a kill scales a non-zero nominal by a positive factor, and a slow
	// factor multiplies the duration after the draw), but faulted jobs
	// keep the live RNG path for memory: a memo on the benchmark's
	// faulted search grid raised its resident set from 12.7 to 26.8 MiB
	// (DESIGN.md, "Noise traces and the state cache").
	if memo {
		st.recordNoiseTraces()
	}
	return st, nil
}

// recordNoiseTraces records the job's per-episode jitter draws in one
// interval-major pass, holding one live jitter stream per node. The
// per-interval draw counts come from the same raw phase tables the
// episodes execute: one draw per phase with a non-zero nominal, plus
// one for the power-reading ripple when PowerSigma is active.
func (st *JobState) recordNoiseTraces() {
	perExec := 1
	if st.cfg.Noise.PowerSigma > 0 {
		perExec = 2
	}
	countDraws := func(phs []machine.Phase) int {
		n := 0
		for i := range phs {
			if phs[i].Nominal != 0 {
				n += perExec
			}
		}
		return n
	}
	// The cluster layer falls back to the job seed when no run seed is
	// configured; the recorder must mirror that to tap the same streams.
	runSeed := st.cfg.RunSeed
	if runSeed == 0 {
		runSeed = st.cfg.Seed
	}
	streams := make([]rng.Stream, st.nTotal)
	for i := range streams {
		streams[i] = *machine.JitterStream(runSeed, i)
	}
	st.noise = make([]noiseWindow, len(st.schedule))
	for k := range st.noise {
		w := noiseWindow{sim: countDraws(st.simPhases[k]), ana: countDraws(st.anaPhases[k])}
		w.draws = make([]float64, st.nSim*w.sim+st.nAna*w.ana)
		o := 0
		for i := range streams {
			c := w.sim
			if i >= st.nSim {
				c = w.ana
			}
			streams[i].FillNorm(w.draws[o : o+c])
			o += c
		}
		st.noise[k] = w
		st.traceBytes += int64(len(w.draws)) * 8
	}
}

// TraceBytes returns the recorded noise traces' storage footprint in
// bytes (zero when memoization is off). The state cache uses it to
// bound total memo memory.
func (st *JobState) TraceBytes() int64 { return st.traceBytes }

// EpisodeParams are the per-episode knobs of one run: the acting
// policy, the power-budget configuration and the telemetry hub.
// Everything else about the job lives in the shared JobState.
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
	// Telemetry, when non-nil, receives the run's metrics and events
	// (see Config.Telemetry). The episode re-attaches its cluster when
	// the hub differs from the previous run's, so one pooled Episode
	// serves instrumented and plain runs alike.
	Telemetry *telemetry.Hub
}

// Episode owns the mutable state of one worker's runs over a JobState:
// the node population and the driver's scratch slices. Run may be
// called any number of times; each call resets the cluster and replays
// the job from scratch. An Episode is not safe for concurrent use.
type Episode struct {
	st *JobState
	cl *cluster.Cluster
	// tel is the hub the cluster is attached to.
	tel *telemetry.Hub

	// tables holds each distinct device model's adapted phase tables,
	// and nodeModel[i] is node i's index into it. The run loop executes
	// them through RunAdapted: no per-execution adaptation, no Phase
	// copies.
	tables    []modelTables
	nodeModel []int

	// health is the episode's copy of the cluster's health view,
	// updated from the transitions Advance returns, so the window loop
	// reads it without the cluster's lock.
	health     []core.Health
	busy       []units.Seconds
	measures   []core.NodeMeasure
	lastEnergy []units.Joules
	used       bool

	// clock is the running episode's virtual time. It lives on the
	// Episode so the telemetry clock closure can read it without moving
	// a Run local to the heap every episode.
	clock units.Seconds
}

// modelTables are one device model's phase tables.
type modelTables struct {
	model machine.Model
	// sim[k] and ana[k] are the partitions' tables for schedule entry
	// k, adapted to the model once per job.
	sim, ana [][]machine.Phase
	// scaled[r] is scratch for partition r's table of the running
	// interval while kills have scaled that partition's work: each raw
	// nominal multiplied by the work scale, then adapted. The order
	// matters in floating point (scale*(nominal/speed) differs from
	// (scale*nominal)/speed), and scaling first is the order Run's
	// per-execution adaptation used. Capacity is reserved once, so the
	// rebuild never allocates.
	scaled [2][]machine.Phase
}

// adaptTables returns the model-adapted copy of per-interval phase
// tables. Adapting once per job is byte-identical to adapting per
// execution (Adapt is deterministic per model).
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

// scale fills tb.scaled[r] with raw's phases, work-scaled by s and
// then adapted to the model.
func (tb *modelTables) scale(r core.Role, raw []machine.Phase, s float64) {
	out := tb.scaled[r][:0]
	for _, ph := range raw {
		ph.Nominal = units.Seconds(float64(ph.Nominal) * s)
		out = append(out, tb.model.Adapt(ph))
	}
	tb.scaled[r] = out
}

// maxLen returns the longest table's length.
func maxLen(tables [][]machine.Phase) int {
	n := 0
	for _, phs := range tables {
		n = max(n, len(phs))
	}
	return n
}

// NewEpisode builds the job's node population for one worker. The
// phase tables are validated here against every device model present,
// once, so the run loop can execute pre-adapted phases unchecked (an
// invalid phase panics, preserving machine.Node.Run's contract).
func (st *JobState) NewEpisode() (*Episode, error) {
	cl, err := cluster.New(cluster.Config{
		SimNodes: st.nSim,
		AnaNodes: st.nAna,
		Noise:    st.cfg.Noise,
		Classes:  st.cfg.Classes,
		JobSeed:  st.cfg.Seed,
		RunSeed:  st.cfg.RunSeed,
		Faults:   st.cfg.Faults,
	})
	if err != nil {
		return nil, err
	}
	// Only kills scale work; reserve the scaled scratch for them alone.
	kills := len(st.cfg.Faults.Kills()) > 0
	byModel := map[machine.Model]int{}
	var tables []modelTables
	nodeModel := make([]int, cl.Size())
	for i := range nodeModel {
		m := cl.Node(i).Model()
		idx, ok := byModel[m]
		if !ok {
			for _, tbl := range [2][][]machine.Phase{st.simPhases, st.anaPhases} {
				for _, phs := range tbl {
					for _, ph := range phs {
						if err := m.ValidatePhase(ph); err != nil {
							panic(err)
						}
					}
				}
			}
			tb := modelTables{model: m, sim: adaptTables(m, st.simPhases), ana: adaptTables(m, st.anaPhases)}
			if kills {
				tb.scaled[core.RoleSimulation] = make([]machine.Phase, 0, maxLen(st.simPhases))
				tb.scaled[core.RoleAnalysis] = make([]machine.Phase, 0, maxLen(st.anaPhases))
			}
			idx = len(tables)
			tables = append(tables, tb)
			byModel[m] = idx
		}
		nodeModel[i] = idx
	}
	return &Episode{
		st:         st,
		cl:         cl,
		tables:     tables,
		nodeModel:  nodeModel,
		health:     make([]core.Health, st.nTotal),
		busy:       make([]units.Seconds, st.nTotal),
		measures:   make([]core.NodeMeasure, st.nTotal),
		lastEnergy: make([]units.Joules, st.nTotal),
	}, nil
}

// addSegment appends a traced power segment to the simulation or the
// analysis partition's trace.
func (res *Result) addSegment(sim bool, seg Segment) {
	if sim {
		res.SimSegments = append(res.SimSegments, seg)
	} else {
		res.AnaSegments = append(res.AnaSegments, seg)
	}
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
	tel := prm.Telemetry
	if tel != ep.tel {
		cl.SetTelemetry(tel)
		ep.tel = tel
	}
	if ep.used {
		cl.Reset()
	}
	ep.used = true
	// A run that ends, or is cancelled, inside a slow excursion must
	// not leave its nodes on the hub's degraded gauge.
	defer cl.Settle()
	health, busy, measures, lastEnergy := ep.health, ep.busy, ep.measures, ep.lastEnergy
	for i := range lastEnergy {
		lastEnergy[i] = 0
		health[i] = core.Healthy
	}
	// Kills scale each survivor's share of its partition's work; scale
	// changes only when a transition fires.
	scale := [2]float64{1, 1}

	ep.clock = 0
	policy := pol
	if tel != nil {
		policy = core.Instrument(pol, tel, func() float64 { return float64(ep.clock) })
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
	idleSimM := tel.IdleWaitMetric(core.RoleSimulation.String())
	idleAnaM := tel.IdleWaitMetric(core.RoleAnalysis.String())

	for syncIdx, iv := range st.schedule {
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		// 0. Fault plan: transitions planned for this interval fire
		// before it executes. A kill shifts the dead node's share of the
		// partition's domain-decomposed work onto the survivors.
		if trs := cl.Advance(ep.clock, syncIdx+1); len(trs) > 0 {
			res.FaultLog = append(res.FaultLog, trs...)
			for _, tr := range trs {
				health[tr.NodeID] = tr.To
			}
			scale[core.RoleSimulation] = cl.WorkScale(core.RoleSimulation)
			scale[core.RoleAnalysis] = cl.WorkScale(core.RoleAnalysis)
		}
		for r, s := range scale {
			if s == 1 {
				continue
			}
			raw := st.simPhases[syncIdx]
			if core.Role(r) == core.RoleAnalysis {
				raw = st.anaPhases[syncIdx]
			}
			for m := range ep.tables {
				ep.tables[m].scale(core.Role(r), raw, s)
			}
		}

		// Memoized jobs hand each node its window of the interval's
		// recorded draws; o walks the interval's run front to back.
		var win noiseWindow
		if st.noise != nil {
			win = st.noise[syncIdx]
		}
		o := 0

		// 1. Execute every live node's interval.
		for i := 0; i < nTotal; i++ {
			if health[i] == core.Dead {
				busy[i] = 0
				continue
			}
			n := cl.Node(i)
			role := cl.Role(i)
			tb := &ep.tables[ep.nodeModel[i]]
			phases, c := tb.sim[syncIdx], win.sim
			if role == core.RoleAnalysis {
				phases, c = tb.ana[syncIdx], win.ana
			}
			if scale[role] != 1 {
				phases = tb.scaled[role]
			}
			if st.noise != nil {
				// The window's length and capacity end where the next
				// node's draws begin, so an over-read panics instead of
				// consuming them.
				n.SetNoiseTrace(win.draws[o : o+c : o+c])
				o += c
			}
			traced := cfg.TraceSegments && (i == 0 || i == nSim)
			var t units.Seconds
			for k := range phases {
				exec := n.RunAdapted(&phases[k], &cfg.Noise)
				t += exec.Duration
				if traced {
					res.addSegment(i == 0, Segment{Start: ep.clock + t - exec.Duration, Duration: exec.Duration, Power: exec.Power})
				}
			}
			if left := n.NoiseTraceUnread(); left != 0 {
				panic(fmt.Sprintf("cosim: node %d left %d of its %d noise draws unread in interval %d", i, left, c, syncIdx))
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
			if health[i] == core.Dead {
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
					res.addSegment(i == 0, Segment{Start: ep.clock + busy[i], Duration: wait, Power: exec.Power})
				}
			}
			en := n.RAPL().Energy()
			e := en - lastEnergy[i]
			lastEnergy[i] = en
			// Field-wise writes into the pooled slice: a composite
			// literal here materializes a temporary NodeMeasure and
			// copies it in (a measurable duffcopy at scale).
			m := &measures[i]
			m.NodeID = i
			m.Health = health[i]
			m.Role = cl.Role(i)
			m.Time = wall // allocator-to-allocator interval: work + sync wait
			m.BusyTime = busy[i]
			m.EpochTime = core.EpochTime(busy[i], wall)
			m.Power = units.AvgPower(e, wall)
			m.Cap = n.RAPL().LongCap()
			// Zero on a homogeneous cluster: weight 1 and the global
			// clamp range in the allocators' one division.
			m.NodeCapability = cl.Capability(i)
		}
		ep.clock += wall
		rec := trace.NewSyncRecord(syncIdx+1, measures, overhead)
		res.SyncLog.Add(rec)
		if tel != nil {
			tel.SyncBarrier(float64(ep.clock), rec.Step,
				float64(wall), float64(rec.SimTime), float64(rec.AnaTime), rec.Slack(), float64(overhead))
			// Job-level budget check: summed measured power against the
			// global budget (small tolerance for enforcement slack). Dead
			// nodes draw nothing, so the sum covers live nodes only.
			if prm.CapMode != CapNone && prm.Constraints.Budget > 0 {
				aliveSim, aliveAna := cl.AliveCounts()
				total := float64(rec.SimPower)*float64(aliveSim) + float64(rec.AnaPower)*float64(aliveAna)
				if budget := float64(prm.Constraints.Budget); total > budget*1.01 {
					tel.BudgetViolation(float64(ep.clock), "job", total, budget)
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
					if health[i] != core.Dead && caps[i] > 0 && caps[i] != n.RAPL().LongCap() {
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
