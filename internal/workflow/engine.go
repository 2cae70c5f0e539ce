// The engine: execute a compiled workflow graph rank-parallel on the
// virtual-time MPI runtime. This is the generic scaffolding extracted
// from the insitu driver's Run — cluster construction, per-rank PoLiMER
// setup, partition communicators, fault application, and the
// byte-identity-sensitive result aggregation — with the per-rank body
// either a stage's custom Body (insitu's real-MD loops) or the generic
// declarative program driven by the stage's WorkModel and edges.
package workflow

import (
	"context"
	"fmt"
	"sync"

	"seesaw/internal/cluster"
	"seesaw/internal/core"
	"seesaw/internal/fault"
	"seesaw/internal/machine"
	"seesaw/internal/mpi"
	"seesaw/internal/polimer"
	"seesaw/internal/telemetry"
	"seesaw/internal/trace"
	"seesaw/internal/units"
)

// Config describes one workflow job.
type Config struct {
	// Graph is the declarative workflow; Run compiles it.
	Graph Graph
	// Steps is the total number of Verlet steps the producer stages
	// advance.
	Steps int
	// SyncEvery synchronizes every j-th step (1 if zero); ignored when
	// SyncSteps is set.
	SyncEvery int
	// SyncSteps optionally gives the exact global synchronization
	// schedule (ascending 1-based steps), for mixed-interval workloads.
	SyncSteps []int
	// Policy is the power-allocation policy evaluated on the root rank
	// (static if nil).
	Policy core.Policy
	// Constraints carry the global budget and per-node cap range. For a
	// uniformly time-shared graph the range must describe the half-node
	// domains (see Topology.ScaleCaps).
	Constraints core.Constraints
	// InitialCaps optionally sets per-node initial caps by stage name;
	// stages without an entry start at the even split of the budget.
	InitialCaps map[string]units.Watts
	// ShortTermCap additionally installs short-term RAPL caps.
	ShortTermCap bool
	// Seed drives all stochastic behaviour deterministically; RunSeed
	// separates per-run jitter (falls back to Seed when zero).
	Seed, RunSeed uint64
	// Faults is an optional deterministic fault plan keyed to the
	// synchronization schedule. A kill takes the whole job down through
	// the runtime's poisoning path — consumers blocked on a dead
	// producer's transfer unwind too — and Run returns a
	// *fault.KilledError.
	Faults *fault.Plan
	// Noise configures node variability; zero values give a
	// deterministic run.
	Noise machine.NoiseModel
	// Classes assigns device classes to world ranks (machine.ClassMap
	// grammar); nil keeps the cluster homogeneous. On time-shared
	// placements a rank's class composes with its half-node scale.
	Classes *machine.ClassMap
	// Telemetry, when non-nil, receives metrics and structured events
	// from every rank, including the workflow-level StageStart/StageEnd
	// and TransferVolume events. Nil disables instrumentation at no
	// cost.
	Telemetry *telemetry.Hub
}

// normalize fills defaults; plan must already be compiled.
func (c *Config) normalize(plan *Plan) error {
	if c.Steps <= 0 {
		return fmt.Errorf("workflow: steps must be positive, got %d", c.Steps)
	}
	if c.SyncEvery <= 0 {
		c.SyncEvery = 1
	}
	if len(c.SyncSteps) == 0 {
		for s := c.SyncEvery; s <= c.Steps; s += c.SyncEvery {
			c.SyncSteps = append(c.SyncSteps, s)
		}
	}
	if c.Policy == nil {
		c.Policy = core.NewStatic()
	}
	return c.Constraints.Validate(plan.NWorld)
}

// initialCap resolves one stage's initial per-node cap.
func (c *Config) initialCap(stage string, even units.Watts) units.Watts {
	if w, ok := c.InitialCaps[stage]; ok && w > 0 {
		return w
	}
	return even
}

// Result summarizes one workflow run.
type Result struct {
	// MainLoopTime is the virtual runtime (max over all ranks).
	MainLoopTime units.Seconds
	// Syncs counts global synchronizations.
	Syncs int
	// SyncLog holds the per-synchronization records from the root.
	SyncLog *trace.SyncLog
	// TotalEnergy is the summed energy of all nodes, in world-rank
	// order (part of the determinism contract).
	TotalEnergy units.Joules
	// OverheadTotal is the root's cumulative allocator overhead.
	OverheadTotal units.Seconds
	// StageBusy is each stage's maximum per-rank busy time: the
	// phases its ranks ran through RankCtx.RunPhase.
	StageBusy map[string]units.Seconds
	// TransferBytes is the total modeled volume shipped over graph
	// edges; TransferSeconds is the total producer time spent in
	// staging-transfer phases (in-transit edges only).
	TransferBytes   int64
	TransferSeconds units.Seconds
}

// The staging-transfer phase character: a DMA/forwarding loop that
// draws little power and gains nothing from more.
const (
	transferDemand     = units.Watts(85)
	transferSaturation = units.Watts(96)
	transferSens       = 0.05
)

// RankCtx is the per-rank execution context handed to stage bodies.
type RankCtx struct {
	// Rank is the MPI rank handle; Part is the stage's partition
	// communicator (Split color = stage layout index).
	Rank *mpi.Rank
	Part *mpi.Comm
	// Node is the rank's machine; Mgr its PoLiMER power manager.
	Node *machine.Node
	Mgr  *polimer.Manager
	// StageRank is the rank's index within its stage.
	StageRank int

	cfg   *Config
	cl    *cluster.Cluster
	st    *compiledStage
	busy  units.Seconds
	xferS units.Seconds
	xferB int64
}

// OutDest returns the consumer world rank of the stage's i-th outgoing
// edge for this rank (insitu's pairedAnaRank, generalized).
func (rc *RankCtx) OutDest(i int) int { return rc.st.outs[i].dst[rc.StageRank] }

// ApplyFaults advances this rank's node through the fault plan at the
// given 1-based synchronization index, right before the power
// allocation. A kill aborts the whole job through the runtime's
// poisoning path.
func (rc *RankCtx) ApplyFaults(sync int) {
	if _, dead := rc.cl.Apply(rc.Rank.WorldRank(), rc.Rank.Clock(), sync); dead {
		rc.Rank.Fail(&fault.KilledError{Node: rc.Rank.WorldRank(), Sync: sync})
	}
}

// RunPhase executes one full-node phase on the rank's node, scaled to
// its placement (half the power envelope and twice the nominal time on
// a time-shared half-node), advancing the virtual clock and the rank's
// busy accounting. A phase with no nominal time is skipped.
func (rc *RankCtx) RunPhase(ph machine.Phase) {
	if s := rc.st.scale; s != 1 {
		ph.Nominal = units.Seconds(float64(ph.Nominal) / s)
		ph.Demand = units.Watts(float64(ph.Demand) * s)
		ph.Saturation = units.Watts(float64(ph.Saturation) * s)
	}
	if ph.Nominal <= 0 {
		return
	}
	exec := rc.Node.Run(ph, rc.cfg.Noise)
	rc.Rank.Elapse(exec.Duration)
	rc.busy += exec.Duration
}

// runPhases runs each phase through RunPhase.
func (rc *RankCtx) runPhases(phases []machine.Phase) {
	for _, ph := range phases {
		rc.RunPhase(ph)
	}
}

// StageTransfer accounts the stage's i-th outgoing edge at the given
// 1-based synchronization and, when the edge carries a transfer model,
// executes the staging-transfer phase on the producer's clock. Custom
// bodies call it immediately before sending on the edge (the generic
// program already does); for directly-coupled edges it only records the
// shipped volume. The stage's lead rank emits a TransferVolume event
// covering the whole stage's volume.
func (rc *RankCtx) StageTransfer(i, sync int) {
	out := rc.st.outs[i]
	rc.xferB += int64(out.BytesPerRank)
	var xfer units.Seconds
	if out.Transfer != nil {
		busyBefore := rc.busy
		rc.RunPhase(machine.Phase{
			Name:        "transfer",
			Nominal:     out.Transfer.Time(out.BytesPerRank),
			Demand:      transferDemand,
			Saturation:  transferSaturation,
			Sensitivity: transferSens,
		})
		xfer = rc.busy - busyBefore
		rc.xferS += xfer
	}
	if rc.StageRank == 0 {
		rc.cfg.Telemetry.TransferVolume(float64(rc.Rank.Clock()), out.From+"->"+out.To, sync,
			int64(out.BytesPerRank)*int64(rc.st.Ranks), float64(xfer))
	}
}

// Run executes the workflow job and returns its result. Cancelling the
// context unwinds every rank goroutine and Run returns ctx.Err().
func Run(ctx context.Context, cfg Config) (*Result, error) {
	plan, err := Compile(cfg.Graph)
	if err != nil {
		return nil, err
	}
	if err := cfg.normalize(plan); err != nil {
		return nil, err
	}
	schedule := cfg.SyncSteps
	even := core.EvenSplit(cfg.Constraints, plan.NWorld)

	cl, err := cluster.New(cluster.Config{
		SimNodes:  plan.SimNodes,
		AnaNodes:  plan.AnaNodes,
		Noise:     cfg.Noise,
		Classes:   cfg.Classes,
		JobSeed:   cfg.Seed,
		RunSeed:   cfg.RunSeed,
		Faults:    cfg.Faults,
		Telemetry: cfg.Telemetry,
		Scales:    plan.Scales,
	})
	if err != nil {
		return nil, err
	}
	// A job that ends, or is cancelled, inside a slow excursion must not
	// leave its nodes on the hub's degraded gauge.
	defer cl.Settle()

	res := &Result{
		SyncLog:   &trace.SyncLog{},
		StageBusy: make(map[string]units.Seconds, len(plan.stages)),
	}
	var mu sync.Mutex // guards res across rank goroutines
	// Per-rank aggregates are reduced in world-rank order after the job
	// so float addition order does not depend on goroutine scheduling
	// (the byte-identity contract the drivers' golden tests pin).
	rankEnergy := make([]units.Joules, plan.NWorld)
	rankBusy := make([]units.Seconds, plan.NWorld)
	rankXferS := make([]units.Seconds, plan.NWorld)
	rankXferB := make([]int64, plan.NWorld)

	err = mpi.RunContext(ctx, plan.NWorld, mpi.DefaultCost(), cfg.Telemetry, func(r *mpi.Rank) {
		st := plan.stageFor(r.WorldRank())
		role := cl.Role(r.WorldRank())
		node := cl.Node(r.WorldRank())

		mgr, err := polimer.Init(r, role, node, polimer.Options{
			Policy:       cfg.Policy,
			Constraints:  cfg.Constraints,
			InitialCap:   cfg.initialCap(st.Name, even),
			ShortTermCap: cfg.ShortTermCap,
			Telemetry:    cfg.Telemetry,
			Health:       func() core.Health { return cl.Health(r.WorldRank()) },
			Capability:   cl.CapabilityFn(),
		})
		if err != nil {
			panic(err)
		}

		// Split into per-stage communicators, as Splitanalysis does.
		part := r.World().Split(st.Index, r.WorldRank())

		rc := &RankCtx{
			Rank: r, Part: part, Node: node, Mgr: mgr,
			StageRank: r.WorldRank() - st.Start,
			cfg:       &cfg, cl: cl, st: st,
		}
		if st.Body != nil {
			st.Body(rc)
		} else {
			runProgram(rc, schedule, cfg.Steps)
		}

		// Collect job-level aggregates.
		endClock := r.World().AllreduceMax([]float64{float64(r.Clock())})[0]
		mu.Lock()
		if units.Seconds(endClock) > res.MainLoopTime {
			res.MainLoopTime = units.Seconds(endClock)
		}
		rankEnergy[r.WorldRank()] = node.RAPL().Energy()
		rankBusy[r.WorldRank()] = rc.busy
		rankXferS[r.WorldRank()] = rc.xferS
		rankXferB[r.WorldRank()] = rc.xferB
		if r.WorldRank() == 0 {
			res.SyncLog = mgr.SyncLog()
			res.OverheadTotal = mgr.OverheadTotal()
			res.Syncs = len(schedule)
		}
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	for _, e := range rankEnergy {
		res.TotalEnergy += e
	}
	for _, cs := range plan.stages {
		var most units.Seconds
		for r := cs.Start; r < cs.Start+cs.Ranks; r++ {
			if rankBusy[r] > most {
				most = rankBusy[r]
			}
		}
		res.StageBusy[cs.Name] = most
	}
	for i := 0; i < plan.NWorld; i++ {
		res.TransferSeconds += rankXferS[i]
		res.TransferBytes += rankXferB[i]
	}
	return res, nil
}

// runProgram is the generic per-rank body: the declarative program a
// stage without a custom Body executes. Per synchronization interval,
// in order: the stage's step work (producer side), faults and power
// allocation (the global rendezvous every rank joins), inbound-edge
// receives (waits idle the node as synchronization slack), the stage's
// sync work (consumer side), then outbound-edge transfers and sends.
// Buffered sends keep arbitrary DAG fan-out/fan-in deadlock-free.
func runProgram(rc *RankCtx, schedule []int, steps int) {
	st := rc.st
	tel := rc.cfg.Telemetry
	lead := rc.StageRank == 0
	prev := 0
	for si, step := range schedule {
		if lead {
			tel.StageStart(float64(rc.Rank.Clock()), st.Name, si+1)
		}
		if st.Work != nil {
			rc.runPhases(st.Work.StepPhases(prev, step, si))
		}
		rc.ApplyFaults(si + 1)
		// Power allocation immediately before the synchronization.
		rc.Mgr.PowerAlloc()
		for _, in := range st.ins {
			for _, src := range in.sources[rc.StageRank] {
				before := rc.Rank.Clock()
				rc.Rank.Recv(src, in.tag)
				rc.Mgr.NoteExternalWait(rc.Rank.Clock() - before)
			}
		}
		if st.Work != nil {
			rc.runPhases(st.Work.SyncPhases(si, step))
		}
		for oi := range st.outs {
			rc.StageTransfer(oi, si+1)
			out := st.outs[oi]
			rc.Rank.Send(out.dst[rc.StageRank], out.tag, si, out.BytesPerRank)
		}
		if lead {
			tel.StageEnd(float64(rc.Rank.Clock()), st.Name, si+1, float64(rc.busy))
		}
		prev = step
	}
	// Trailing Verlet steps after the last synchronization.
	if st.Work != nil && prev < steps {
		rc.runPhases(st.Work.StepPhases(prev, steps, len(schedule)))
	}
}
