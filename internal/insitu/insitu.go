// Package insitu implements the Verlet-Splitanalysis in-situ workflow of
// Malakar et al. that the paper evaluates (Section V): physically
// separate partitions of simulation and analysis processes advancing a
// LAMMPS-style molecular-dynamics run, synchronizing every j Verlet
// steps. Each Verlet step follows the paper's eight-step flow:
//
//  1. S performs initial integration
//  2. S sends particle coordinates and velocities to the A partition
//  3. both partitions rebuild a subset of data structures
//  4. S sends the particle count to A for verification
//  5. both partitions update neighbor lists
//  6. S computes forces and final integration
//  7. S invokes A at the end of the time step
//  8. optional output of the state of S (thermodynamic data)
//
// Steps 2-4 constitute the synchronization phase; they (and 5 and 7) run
// only every j-th step. Power allocation (PoLiMER's poli_power_alloc) is
// invoked by every rank immediately before the synchronization, exactly
// as in the instrumented LAMMPS of Section VI-C.
//
// Ranks execute real mini-MD (package lammps) and real analyses (package
// analysis); their computational work is converted to virtual time and
// power through each rank's simulated node (package machine), so the
// power-management policies observe the same time/power structure the
// paper's Theta runs expose.
package insitu

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"seesaw/internal/core"
	"seesaw/internal/fault"
	"seesaw/internal/lammps"
	"seesaw/internal/machine"
	"seesaw/internal/telemetry"
	"seesaw/internal/trace"
	"seesaw/internal/units"
	"seesaw/internal/workflow"
)

// Config describes one in-situ job.
type Config struct {
	// SimRanks and AnaRanks are the partition sizes (one rank per node,
	// equal counts in all of the paper's Section VII results).
	SimRanks, AnaRanks int
	// Steps is the number of Verlet steps (the paper uses 400).
	Steps int
	// SyncEvery is j: simulation and analysis synchronize every j-th
	// step.
	SyncEvery int
	// Lammps configures each simulation rank's sub-box.
	Lammps lammps.Config
	// Analyses names the analyses to run (see analysis.Names). Every
	// analysis rank runs the full set in sequence, as in the paper's
	// "all" configuration.
	Analyses []string
	// AnalysisIntervals optionally overrides the synchronization
	// interval of individual analyses (Table II's mixed-interval
	// scenario); analyses not listed run every SyncEvery steps.
	AnalysisIntervals map[string]int
	// Topology selects the analysis partition's placement: "" or
	// "space-shared" (dedicated nodes, the paper's setup),
	// "time-shared" (each analysis rank co-resides with a simulation
	// rank, splitting the physical node into two half-node power
	// domains; requires equal partitions — Constraints and the initial
	// caps describe full physical nodes and are halved internally, and
	// the workflow engine runs each phase at half the power envelope
	// and twice the nominal time), or
	// "in-transit" (frames reach the analysis partition through a
	// staging hop the simulation ranks pay for on the virtual clock).
	Topology string
	// Policy is the power-allocation policy evaluated on the root rank.
	Policy core.Policy
	// Constraints carry the global budget and cap range.
	Constraints core.Constraints
	// InitialSimCap / InitialAnaCap are the initial per-node caps
	// (Figure 7's unbalanced starts); zero means an even split of the
	// budget.
	InitialSimCap, InitialAnaCap units.Watts
	// ShortTermCap additionally installs short-term RAPL caps.
	ShortTermCap bool
	// Seed drives all stochastic behaviour deterministically.
	Seed uint64
	// Faults is an optional deterministic fault plan keyed to the
	// synchronization schedule. A slow-node excursion degrades the
	// affected rank's node in place; a kill takes the whole job down —
	// as a dead rank does under real MPI, where its collectives can
	// never complete — and Run returns a *fault.KilledError.
	Faults *fault.Plan
	// Noise configures node variability; zero values give a
	// deterministic run.
	Noise machine.NoiseModel
	// Classes assigns device classes to world ranks (machine.ClassMap
	// grammar); nil keeps the cluster homogeneous.
	Classes *machine.ClassMap
	// Telemetry, when non-nil, receives metrics and structured events
	// from every rank: RAPL cap writes and throttling, collective
	// rendezvous waits (via the mpi runtime), synchronization barriers
	// and policy decisions (via PoLiMER). Nil disables instrumentation
	// at no cost.
	Telemetry *telemetry.Hub

	// placement is Topology parsed.
	placement workflow.Placement
}

// normalize fills zero-valued sub-configurations with defaults.
func (c *Config) normalize() error {
	if c.SimRanks <= 0 || c.AnaRanks <= 0 {
		return fmt.Errorf("insitu: need positive partition sizes, got sim=%d ana=%d", c.SimRanks, c.AnaRanks)
	}
	if c.Steps <= 0 {
		return fmt.Errorf("insitu: steps must be positive, got %d", c.Steps)
	}
	switch {
	case c.SyncEvery < 0:
		return fmt.Errorf("insitu: SyncEvery must not be negative, got %d", c.SyncEvery)
	case c.SyncEvery == 0:
		c.SyncEvery = 1
	}
	for name, j := range c.AnalysisIntervals {
		if j < 1 {
			return fmt.Errorf("insitu: analysis %q: interval must be >= 1, got %d", name, j)
		}
	}
	if c.Lammps.Atoms == 0 {
		c.Lammps = lammps.DefaultConfig()
	}
	if len(c.Analyses) == 0 {
		return fmt.Errorf("insitu: at least one analysis required")
	}
	if c.Policy == nil {
		c.Policy = core.NewStatic()
	}
	placement, err := workflow.ParsePlacement(c.Topology)
	if err != nil {
		return fmt.Errorf("insitu: topology: %w", err)
	}
	c.placement = placement
	if placement == workflow.TimeShared {
		if c.SimRanks != c.AnaRanks {
			return fmt.Errorf("insitu: time-shared topology pairs partitions rank-for-rank, got sim=%d ana=%d", c.SimRanks, c.AnaRanks)
		}
		// The caller's constraints and caps describe full physical
		// nodes; under time-sharing each rank owns a half-node domain
		// and the machine has half the nodes the rank count suggests.
		c.Constraints.Budget /= 2
		c.Constraints.MinCap /= 2
		c.Constraints.MaxCap /= 2
		c.InitialSimCap /= 2
		c.InitialAnaCap /= 2
	}
	nodes := c.SimRanks + c.AnaRanks
	if err := c.Constraints.Validate(nodes); err != nil {
		return err
	}
	even := core.EvenSplit(c.Constraints, nodes)
	if c.InitialSimCap == 0 {
		c.InitialSimCap = even
	}
	if c.InitialAnaCap == 0 {
		c.InitialAnaCap = even
	}
	return nil
}

// analysisInterval returns the synchronization interval of one analysis.
func (c *Config) analysisInterval(name string) int {
	if j, ok := c.AnalysisIntervals[name]; ok {
		return j
	}
	return c.SyncEvery
}

// syncSteps precomputes the set of steps at which any analysis is due —
// the global synchronization schedule all ranks follow.
func (c *Config) syncSteps() []int {
	due := map[int]bool{}
	for step := 1; step <= c.Steps; step++ {
		for _, a := range c.Analyses {
			if step%c.analysisInterval(a) == 0 {
				due[step] = true
				break
			}
		}
	}
	steps := make([]int, 0, len(due))
	for s := range due {
		steps = append(steps, s)
	}
	sort.Ints(steps)
	return steps
}

// Result summarizes one in-situ job run.
type Result struct {
	// MainLoopTime is the virtual runtime of the Verlet loop (max over
	// all ranks), the paper's "time to complete the simulation".
	MainLoopTime units.Seconds
	// Syncs counts simulation/analysis synchronizations.
	Syncs int
	// SyncLog holds the per-synchronization records from the root.
	SyncLog *trace.SyncLog
	// AnalysisResults maps analysis name to its final output (from the
	// first analysis rank).
	AnalysisResults map[string][]float64
	// TotalEnergy is the summed energy of all nodes.
	TotalEnergy units.Joules
	// OverheadTotal is the root's cumulative allocator overhead.
	OverheadTotal units.Seconds
	// FinalSimEnergy is the MD total energy at the end (for physics
	// sanity checks).
	FinalSimEnergy float64
}

// tags for point-to-point messages.
const (
	tagFrame = iota + 100
	tagCount
)

// Run executes the in-situ job and returns its result. Cancelling the
// context unwinds every rank goroutine — including ranks blocked at a
// collective, in a receive or on an unpublished recording step — and
// Run returns ctx.Err().
//
// The job's mini-MD and analyses are recorded once, on one recorder
// goroutine that starts with the ranks and publishes the recording step
// by step (see simTrace); Run stops it and waits for it before
// returning.
//
// The job executes as a two-stage workflow graph on the workflow
// engine, which owns cluster construction, PoLiMER setup, placement
// (including the time-shared half-node split and the in-transit staging
// hop) and result aggregation; this driver supplies the per-rank bodies
// that replay real mini-MD and real analyses.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	syncSchedule := cfg.syncSteps()
	tables, sys, err := newJobTables(&cfg, syncSchedule)
	if err != nil {
		return nil, err
	}

	// The ranks wait on ctx, not recCtx: besides ending with ctx, recCtx
	// ends when Run stops the recorder, after every rank has returned.
	recCtx, stopRecorder := context.WithCancel(ctx)
	recorded := make(chan struct{})
	go func() {
		defer close(recorded)
		tables.trace.record(recCtx, sys, tables.syncSet, tables.anaTr)
	}()
	defer func() {
		stopRecorder()
		<-recorded
	}()

	res := &Result{
		AnalysisResults: make(map[string][]float64),
		SyncLog:         &trace.SyncLog{},
	}
	var mu sync.Mutex // guards the body-written Result fields

	host := ""
	if cfg.placement == workflow.TimeShared {
		host = "sim"
	}
	g := workflow.Graph{
		Name: "insitu",
		Stages: []workflow.Stage{
			{Name: "sim", Role: core.RoleSimulation, Ranks: cfg.SimRanks,
				Body: func(rc *workflow.RankCtx) { runSimRank(ctx, rc, &cfg, tables, res, &mu) }},
			{Name: "ana", Role: core.RoleAnalysis, Ranks: cfg.AnaRanks,
				Placement: cfg.placement, Host: host,
				Body: func(rc *workflow.RankCtx) { runAnaRank(ctx, rc, &cfg, tables, syncSchedule, res, &mu) }},
		},
		// Declaration order fixes the edge tags to the historical
		// tagFrame/tagCount values the bodies send on.
		Edges: []workflow.Edge{
			{From: "sim", To: "ana", BytesPerRank: tables.trace.frameBytes},
			{From: "sim", To: "ana", BytesPerRank: 8},
		},
	}
	wres, err := workflow.Run(ctx, workflow.Config{
		Graph:        g,
		Steps:        cfg.Steps,
		SyncSteps:    syncSchedule,
		Policy:       cfg.Policy,
		Constraints:  cfg.Constraints,
		InitialCaps:  map[string]units.Watts{"sim": cfg.InitialSimCap, "ana": cfg.InitialAnaCap},
		ShortTermCap: cfg.ShortTermCap,
		Seed:         cfg.Seed,
		Faults:       cfg.Faults,
		Noise:        cfg.Noise,
		Classes:      cfg.Classes,
		Telemetry:    cfg.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	res.MainLoopTime = wres.MainLoopTime
	res.Syncs = wres.Syncs
	res.SyncLog = wres.SyncLog
	res.TotalEnergy = wres.TotalEnergy
	res.OverheadTotal = wres.OverheadTotal
	return res, nil
}

// pairedAnaRank returns the analysis world rank paired with a simulation
// rank (one analysis process serves one or more simulation processes).
func pairedAnaRank(simRank, nSim, nAna int) int {
	return nSim + simRank%nAna
}

// simPhaseSet and anaPhaseSet are the per-step loops' phase specs,
// resolved out of the simPhases/anaPhases maps once per job so a 4096-
// rank run doesn't hash the same six strings on every Verlet step of
// every rank.
type simPhaseSet struct {
	integrate, sync, rebuild, neighbor, force, output phaseSpec
}

type anaPhaseSet struct {
	rebuild, neighbor phaseSpec
}

// jobTables bundles the derived, read-only lookup structures shared by
// every rank goroutine: resolved phase specs, the synchronization-step
// set (built once instead of per sim rank), and the sim→ana pairing
// lists (built in one O(nSim) pass instead of every analysis rank
// scanning all simulation ranks).
type jobTables struct {
	sim     simPhaseSet
	ana     anaPhaseSet
	syncSet map[int]bool
	// sources[a] lists the simulation world ranks feeding analysis world
	// rank SimRanks+a, in ascending order.
	sources [][]int
	// trace is the job's mini-MD trajectory, integrated once and
	// replayed by every simulation rank (see simTrace).
	trace *simTrace
	// anaTr is the analysis-side compute recording, integrated once per
	// distinct source count and replayed by every analysis rank (see
	// anaTrace).
	anaTr *anaTrace
}

// newJobTables builds the job's tables and its empty recordings, and
// returns the System the recorder integrates. A lammps or analysis
// configuration error fails here, before any goroutine starts.
func newJobTables(cfg *Config, syncSchedule []int) (*jobTables, *lammps.System, error) {
	t := &jobTables{
		sim: simPhaseSet{
			integrate: simPhases["integrate"],
			sync:      simPhases["sync"],
			rebuild:   simPhases["rebuild"],
			neighbor:  simPhases["neighbor"],
			force:     simPhases["force"],
			output:    simPhases["output"],
		},
		ana: anaPhaseSet{
			rebuild:  anaPhases["rebuild"],
			neighbor: anaPhases["neighbor"],
		},
		syncSet: make(map[int]bool, len(syncSchedule)),
		sources: make([][]int, cfg.AnaRanks),
	}
	for _, s := range syncSchedule {
		t.syncSet[s] = true
	}
	for s := 0; s < cfg.SimRanks; s++ {
		a := pairedAnaRank(s, cfg.SimRanks, cfg.AnaRanks) - cfg.SimRanks
		t.sources[a] = append(t.sources[a], s)
	}
	sys, err := lammps.New(cfg.Lammps)
	if err != nil {
		return nil, nil, err
	}
	t.trace = newSimTrace(sys, cfg.Steps)
	if t.anaTr, err = newAnaTrace(cfg, syncSchedule, t.sources); err != nil {
		return nil, nil, err
	}
	return t, sys, nil
}

// runSimRank is the per-step loop of a simulation rank. The physics is
// integrated once, by the recorder (simTrace.record); each rank waits
// for a step to be published and replays it (identical work, frames and
// thermo scalars on every rank), spending its time in the parts that do
// differ per rank: virtual-time phases, power allocation, faults and
// communication.
func runSimRank(ctx context.Context, rc *workflow.RankCtx, cfg *Config, tables *jobTables, res *Result, mu *sync.Mutex) {
	r, simComm := rc.Rank, rc.Part
	mgr := rc.Mgr
	tr := tables.trace
	dst := rc.OutDest(0)
	phases := &tables.sim

	syncIdx := 0
	for step := 1; step <= cfg.Steps; step++ {
		tr.wait(ctx, r, step)
		st := &tr.steps[step-1]
		// Step 1: initial integration.
		runWork(rc, phases.integrate, st.integrate)

		if st.frame != nil {
			syncIdx++
			rc.ApplyFaults(syncIdx)
			// Power allocation immediately before the synchronization.
			mgr.PowerAlloc()

			// Step 2: ship coordinates and velocities to the analysis
			// partition. The analysis side replays its recording and only
			// reads the frame, so every rank ships the shared recorded
			// snapshot instead of cloning ~frameBytes per send. Under an
			// in-transit topology StageTransfer first pays the staging hop
			// on this rank's clock.
			runWork(rc, phases.sync, lammps.WorkCount{Ops: float64(tr.n) * 6, Bytes: tr.frameBytes})
			rc.StageTransfer(0, syncIdx)
			r.Send(dst, tagFrame, st.frame, tr.frameBytes)

			// Step 3: rebuild a subset of data structures.
			runWork(rc, phases.rebuild, lammps.WorkCount{Ops: float64(tr.n) * 4})

			// Step 4: particle count for verification.
			rc.StageTransfer(1, syncIdx)
			r.Send(dst, tagCount, tr.n, 8)

			// Step 5: update neighbor lists.
			runWork(rc, phases.neighbor, st.neighbor)
		} else if st.rebuilt {
			// Physical-safety rebuild between synchronizations (the
			// Verlet skin would otherwise be violated for large j);
			// charged as ordinary neighbor work without synchronization.
			runWork(rc, phases.neighbor, st.neighbor)
		}

		// Step 6: force computation and final integration.
		runWork(rc, phases.force, st.force)

		// Step 8: thermodynamic output at the end of each time step
		// (communication- and I/O-intensive).
		sums := simComm.AllreduceSum([]float64{st.ke, st.pe})
		_ = sums
		runWork(rc, phases.output, lammps.WorkCount{Ops: float64(tr.n), Bytes: tr.thermoBytes * simComm.Size()})
	}

	mu.Lock()
	if simComm.Rank() == 0 {
		res.FinalSimEnergy = tr.finalEnergy
	}
	mu.Unlock()
}

// runAnaRank is the per-synchronization loop of an analysis rank. The
// analysis kernels are integrated once per distinct source count, by
// the recorder (anaTrace.consume); each rank replays its shape's
// recording (identical work counts and result vectors on every rank of
// that shape) and spends its time in the parts that do differ per rank:
// virtual-time phases, power allocation, faults and communication.
//
// An analysis rank needs no wait of its own to read rec.work[si]: it
// reads it only after receiving that step's frame from a simulation
// rank that saw the step published. The recorder's writes happen before
// the publication (the atomic store and the channel close), the
// simulation rank's load or receive of it happens before its Send, and
// the Send's deposit under the mailbox lock happens before the Recv
// that takes the frame. The final result vectors are read after a wait
// for the last step, which may not be a synchronization step.
func runAnaRank(ctx context.Context, rc *workflow.RankCtx, cfg *Config, tables *jobTables, syncSchedule []int,
	res *Result, mu *sync.Mutex) {

	r, anaComm := rc.Rank, rc.Part
	mgr := rc.Mgr
	at := tables.anaTr

	// Which simulation ranks feed this analysis rank?
	sources := tables.sources[r.WorldRank()-cfg.SimRanks]
	phases := &tables.ana
	rec := at.recordings[len(sources)]

	for si := range syncSchedule {
		rc.ApplyFaults(si + 1)
		// Power allocation immediately before the synchronization.
		mgr.PowerAlloc()

		flat := 0
		for _, src := range sources {
			// Step 2 (receive side): the frame arrives; time spent
			// blocked on the simulation is synchronization wait, idling
			// the node.
			before := r.Clock()
			payload := r.Recv(src, tagFrame)
			mgr.NoteExternalWait(r.Clock() - before)
			frame := payload.(*lammps.Frame)

			// Step 3: rebuild analysis-side data structures.
			runWork(rc, phases.rebuild, lammps.WorkCount{Ops: float64(len(frame.Pos)) * 4})

			// Step 4: verification of the particle count.
			before = r.Clock()
			count := r.Recv(src, tagCount).(int)
			mgr.NoteExternalWait(r.Clock() - before)
			if count != len(frame.Pos) {
				panic(fmt.Sprintf("insitu: particle count mismatch: %d vs %d", count, len(frame.Pos)))
			}

			// Step 5: analysis-side neighbor/bookkeeping update.
			runWork(rc, phases.neighbor, lammps.WorkCount{Ops: float64(len(frame.Pos)) * 2})

			// Step 7: the analyses due at this step run in sequence.
			for _, ti := range at.due[si] {
				spec := &at.specs[ti]
				w := rec.work[si][flat]
				flat++
				nominal := units.Seconds(w.Ops*spec.prof.SecondsPerOp + float64(w.Bytes)*bytesSecPerByte)
				rc.RunPhase(machine.Phase{
					Name:        spec.name,
					Nominal:     nominal,
					Demand:      spec.prof.Demand,
					Saturation:  spec.prof.Saturation,
					Sensitivity: spec.prof.Sensitivity,
				})
			}
		}
	}

	if anaComm.Rank() == 0 {
		tables.trace.wait(ctx, r, cfg.Steps)
		mu.Lock()
		for name, v := range rec.results {
			res.AnalysisResults[name] = v
		}
		mu.Unlock()
	}
}

// phaseSpec maps a workflow phase to its machine characteristics and the
// work-to-time conversion constants.
type phaseSpec struct {
	demand     units.Watts
	saturation units.Watts
	sens       float64
	secPerOp   float64
	secPerByte float64
}

// bytesSecPerByte is the analysis-side cost of touching frame bytes.
const bytesSecPerByte = 1.0e-7

// simPhases characterizes the LAMMPS phases (Section V): compute phases
// saturate near 140 W per node; communication/IO phases draw little and
// gain almost nothing from power. The work-to-time constants are
// calibrated so the default 512-atom sub-box — a miniature stand-in for
// the ~100k atoms per Theta node at dim=16 — yields the paper's ~4 s
// between synchronizations (Figure 4d); the sub-box physics is real, the
// constants absorb the scale factor.
var simPhases = map[string]phaseSpec{
	"integrate": {demand: 106, saturation: 118, sens: 0.90, secPerOp: 4.3e-5},
	"sync":      {demand: 105, saturation: 112, sens: 0.10, secPerOp: 6.9e-5, secPerByte: 1.0e-6},
	"rebuild":   {demand: 107, saturation: 114, sens: 0.35, secPerOp: 1.46e-4},
	"neighbor":  {demand: 108, saturation: 118, sens: 0.45, secPerOp: 6.0e-6, secPerByte: 5.0e-6},
	"force":     {demand: 108, saturation: 120, sens: 0.95, secPerOp: 5.9e-5},
	"output":    {demand: 105, saturation: 110, sens: 0.10, secPerOp: 2.25e-3, secPerByte: 1.0e-6},
}

// anaPhases characterizes the analysis partition's bookkeeping phases.
var anaPhases = map[string]phaseSpec{
	"rebuild":  {demand: 125, saturation: 118, sens: 0.35, secPerOp: 1.0e-4},
	"neighbor": {demand: 120, saturation: 115, sens: 0.30, secPerOp: 7.5e-5},
}

// runWork converts a work count into a machine phase and runs it on the
// rank, which scales it to the rank's placement.
func runWork(rc *workflow.RankCtx, spec phaseSpec, w lammps.WorkCount) {
	rc.RunPhase(machine.Phase{
		Name:        "phase",
		Nominal:     units.Seconds(w.Ops*spec.secPerOp + float64(w.Bytes)*spec.secPerByte),
		Demand:      spec.demand,
		Saturation:  spec.saturation,
		Sensitivity: spec.sens,
	})
}
