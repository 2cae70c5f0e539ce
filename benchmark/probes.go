package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"runtime/metrics"
	"strings"
	"time"

	"seesaw/internal/analysis"
	"seesaw/internal/campaign"
	"seesaw/internal/cluster"
	"seesaw/internal/core"
	"seesaw/internal/cosim"
	"seesaw/internal/fault"
	"seesaw/internal/lammps"
	"seesaw/internal/machine"
	"seesaw/internal/mpi"
	"seesaw/internal/policy"
	"seesaw/internal/telemetry"
	"seesaw/internal/units"
	jobspec "seesaw/internal/workload"
)

// probeSizes fix the problem sizes and the repetition rule of the layer
// probes. Each repetition runs until it has taken repTime or made
// repCalls calls, and a probe reports the median of reps repetitions.
type probeSizes struct {
	nodes      int    // cluster, allocator, search-job and mpi size
	faultNodes int    // the faulted job's size
	faults     string // the faulted job's plan
	steps      int
	reps       int
	repTime    time.Duration
	repCalls   int
	cells      int // no-op cells per campaign.Run
}

// probeSizesFor returns the 1024-node sizes, or small ones when quick.
// The repetition time is 0.1 s rather than a longer one so that every
// probe fits a traced run.
func probeSizesFor(quick bool) probeSizes {
	if quick {
		return probeSizes{nodes: 16, faultNodes: 8, faults: faultPlan(true), steps: 20,
			reps: 2, repTime: time.Millisecond, repCalls: 100, cells: 100}
	}
	return probeSizes{nodes: 1024, faultNodes: 256, faults: faultPlan(false), steps: 400,
		reps: 5, repTime: 100 * time.Millisecond, repCalls: 10000, cells: 1000}
}

// probe is one direct call into a layer's public API. name carries the
// unit as its suffix (_ns, _us or _ms); the probe also reports
// allocations per call under the same stem with the suffix _allocs.
type probe struct {
	name string
	run  func(ctx context.Context, ps probeSizes) (perCall, allocs float64, err error)
}

// allocsName is the allocation metric that goes with a probe.
func allocsName(probeName string) string {
	i := strings.LastIndex(probeName, "_")
	return probeName[:i] + "_allocs"
}

// probeScale converts nanoseconds to the unit a probe's name ends with.
func probeScale(name string) float64 {
	switch {
	case strings.HasSuffix(name, "_us"):
		return 1e3
	case strings.HasSuffix(name, "_ms"):
		return 1e6
	default:
		return 1
	}
}

var probes = []probe{
	{"rapl.grant_advance_ns", probeRapl},
	{"machine.run_adapted_ns", func(ctx context.Context, ps probeSizes) (float64, float64, error) { return probeMachine(ps, true) }},
	{"machine.run_trusted_ns", func(ctx context.Context, ps probeSizes) (float64, float64, error) { return probeMachine(ps, false) }},
	{"cluster.measure_us", probeClusterMeasure},
	{"core.seesaw_allocate_us", func(ctx context.Context, ps probeSizes) (float64, float64, error) { return probeAllocate(ps, "seesaw") }},
	{"core.time-aware_allocate_us", func(ctx context.Context, ps probeSizes) (float64, float64, error) {
		return probeAllocate(ps, "time-aware")
	}},
	{"core.power-aware_allocate_us", func(ctx context.Context, ps probeSizes) (float64, float64, error) {
		return probeAllocate(ps, "power-aware")
	}},
	{"cosim.jobstate_build_ms", probeJobStateBuild},
	{"cosim.episode_ms", func(ctx context.Context, ps probeSizes) (float64, float64, error) {
		return probeEpisode(ctx, ps, false)
	}},
	{"cosim.episode_faulted_ms", func(ctx context.Context, ps probeSizes) (float64, float64, error) { return probeEpisode(ctx, ps, true) }},
	{"mpi.allreduce_us", func(ctx context.Context, ps probeSizes) (float64, float64, error) { return probeMPI(ps, mpiAllreduce) }},
	{"mpi.barrier_us", func(ctx context.Context, ps probeSizes) (float64, float64, error) { return probeMPI(ps, mpiBarrier) }},
	{"mpi.sendrecv_us", func(ctx context.Context, ps probeSizes) (float64, float64, error) { return probeMPI(ps, mpiSendRecv) }},
	{"telemetry.counter_inc_ns", probeCounter},
	{"telemetry.emit_ns", probeEmit},
	{"lammps.step_us", probeLammps},
	{"analysis.msd_consume_us", probeMSD},
	{"campaign.cell_overhead_us", probeCampaign},
}

// runProbes runs every probe and returns its per-call time, in the unit
// its name gives, and its allocations per call.
func runProbes(ctx context.Context, quick bool) (map[string]float64, error) {
	ps := probeSizesFor(quick)
	out := map[string]float64{}
	for _, p := range probes {
		ns, allocs, err := p.run(ctx, ps)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		out[p.name] = ns / probeScale(p.name)
		out[allocsName(p.name)] = allocs
	}
	return out, nil
}

// heapObjects reads the runtime's count of heap objects allocated so far.
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timeCalls runs call under the repetition rule and returns the median
// nanoseconds and allocations per call. before, when non-nil, runs
// untimed ahead of each repetition.
func (ps probeSizes) timeCalls(before func(), call func() error) (float64, float64, error) {
	nsPer := make([]float64, 0, ps.reps)
	allocsPer := make([]float64, 0, ps.reps)
	for rep := 0; rep < ps.reps; rep++ {
		if before != nil {
			before()
		}
		a0 := heapObjects()
		t0 := time.Now()
		n := 0
		for n < ps.repCalls && (n == 0 || time.Since(t0) < ps.repTime) {
			if err := call(); err != nil {
				return 0, 0, err
			}
			n++
		}
		el := time.Since(t0)
		allocsPer = append(allocsPer, float64(heapObjects()-a0)/float64(n))
		nsPer = append(nsPer, float64(el.Nanoseconds())/float64(n))
	}
	return median(nsPer), median(allocsPer), nil
}

// probeCluster builds the cluster a ps.nodes search job runs on.
func probeCluster(ps probeSizes) (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{
		SimNodes: ps.nodes / 2, AnaNodes: ps.nodes - ps.nodes/2,
		Noise: machine.DefaultNoise(), JobSeed: 1, RunSeed: 2,
	})
}

// probeSpec is the search job's workload at the probe size.
func probeSpec(nodes int, ps probeSizes) jobspec.Spec {
	return jobspec.Spec{
		SimNodes: nodes / 2, AnaNodes: nodes - nodes/2,
		Dim: 16, J: 1, Steps: ps.steps, Analyses: jobspec.Tasks("msd"),
	}
}

// probeRapl times one Grant plus one Advance on a cluster-built domain.
func probeRapl(_ context.Context, ps probeSizes) (float64, float64, error) {
	cl, err := probeCluster(ps)
	if err != nil {
		return 0, 0, err
	}
	d := cl.Node(0).RAPL()
	d.SetLongCap(110)
	return ps.timeCalls(nil, func() error {
		allowed, _ := d.Grant(150)
		d.Advance(1e-3, allowed)
		return nil
	})
}

// probeMachine times one execution of the simulation's force phase:
// pre-adapted with replayed noise as the pooled search episode runs it,
// or through RunTrusted with live noise as faulted and one-shot runs do.
func probeMachine(ps probeSizes, adapted bool) (float64, float64, error) {
	cl, err := probeCluster(ps)
	if err != nil {
		return 0, 0, err
	}
	n := cl.Node(0)
	phases := probeSpec(ps.nodes, ps).SimIntervalIdx(0, 1, 0)
	ph := phases[0]
	for _, p := range phases {
		if p.Nominal > ph.Nominal {
			ph = p
		}
	}
	noise := machine.DefaultNoise()
	if !adapted {
		return ps.timeCalls(n.Reset, func() error {
			n.RunTrusted(ph, noise)
			return nil
		})
	}
	if err := n.Model().ValidatePhase(ph); err != nil {
		return 0, 0, err
	}
	ad := n.Model().Adapt(ph)
	// Two draws per execution: jitter and the power-reading ripple.
	n.SetNoiseTrace(machine.JitterTrace(2, 0, 2*ps.repCalls))
	return ps.timeCalls(n.Reset, func() error {
		n.RunAdapted(&ad, &noise)
		return nil
	})
}

// probeClusterMeasure times one Measure sweep over every node.
func probeClusterMeasure(_ context.Context, ps probeSizes) (float64, float64, error) {
	cl, err := probeCluster(ps)
	if err != nil {
		return 0, 0, err
	}
	// Install the caps, and idle past the actuation latency so they are in
	// force, as after the first window of a run.
	for i := 0; i < cl.Size(); i++ {
		cl.Node(i).RAPL().SetLongCap(110)
		cl.Node(i).Idle(1)
	}
	var sink units.Watts
	ns, allocs, err := ps.timeCalls(nil, func() error {
		for i := 0; i < cl.Size(); i++ {
			sink += cl.Measure(i).Cap
		}
		return nil
	})
	if sink <= 0 {
		return 0, 0, fmt.Errorf("measure sweep read no caps")
	}
	return ns, allocs, err
}

// probeConstraints is the 110 W per-node budget of an n-node job.
func probeConstraints(n int) core.Constraints {
	return core.Constraints{Budget: units.Watts(110 * n), MinCap: 98, MaxCap: 215}
}

// probeAllocate times one Allocate call of a registry policy on an
// interval where the simulation partition is the slower one.
func probeAllocate(ps probeSizes, name string) (float64, float64, error) {
	cons := probeConstraints(ps.nodes)
	ms := make([]core.NodeMeasure, ps.nodes)
	for i := range ms {
		m := core.NodeMeasure{NodeID: i, Role: core.RoleSimulation, Time: 1.0,
			BusyTime: units.Seconds(0.95 + 0.0001*float64(i%11)), Power: 108, Cap: 110}
		if i >= ps.nodes/2 {
			m.Role = core.RoleAnalysis
			m.BusyTime = units.Seconds(0.80 + 0.0001*float64(i%7))
			m.Power = 104
		}
		m.EpochTime = m.BusyTime + (m.Time-m.BusyTime)/2
		ms[i] = m
	}
	var pol core.Policy
	step := 0
	var err error
	fresh := func() {
		pol, err = policy.New(name, cons, 1)
		step = 0
	}
	fresh()
	if err != nil {
		return 0, 0, err
	}
	return ps.timeCalls(fresh, func() error {
		step++
		pol.Allocate(step, ms)
		return nil
	})
}

// probeCosimConfig is the probe's co-simulated job: a search grid point
// at nodes, optionally under the faulted search's plan.
func probeCosimConfig(nodes int, ps probeSizes, faults bool) (cosim.Config, cosim.EpisodeParams, error) {
	cfg := cosim.Config{
		Spec: probeSpec(nodes, ps), CapMode: cosim.CapLong,
		Seed: 1, RunSeed: 2, Noise: machine.DefaultNoise(),
	}
	if faults {
		plan, err := fault.Parse(ps.faults)
		if err != nil {
			return cfg, cosim.EpisodeParams{}, err
		}
		cfg.Faults = plan
	}
	return cfg, cosim.EpisodeParams{Constraints: probeConstraints(nodes), CapMode: cosim.CapLong}, nil
}

// runEpisode runs one episode under a fresh seesaw policy.
func runEpisode(ctx context.Context, ep *cosim.Episode, prm cosim.EpisodeParams) error {
	pol, err := policy.New("seesaw", prm.Constraints, 1)
	if err != nil {
		return err
	}
	prm.Policy = pol
	_, err = ep.Run(ctx, prm)
	return err
}

// probeJobStateBuild times a job's cold start: NewJobState (schedule,
// phase tables, noise-trace recording), NewEpisode and the first run.
func probeJobStateBuild(ctx context.Context, ps probeSizes) (float64, float64, error) {
	cfg, prm, err := probeCosimConfig(ps.nodes, ps, false)
	if err != nil {
		return 0, 0, err
	}
	return ps.timeCalls(nil, func() error {
		st, err := cosim.NewJobState(cfg)
		if err != nil {
			return err
		}
		ep, err := st.NewEpisode()
		if err != nil {
			return err
		}
		return runEpisode(ctx, ep, prm)
	})
}

// probeEpisode times a pooled episode replay: the search job at full
// size, or the faulted job, which takes the live-noise RunTrusted path.
func probeEpisode(ctx context.Context, ps probeSizes, faults bool) (float64, float64, error) {
	nodes := ps.nodes
	if faults {
		nodes = ps.faultNodes
	}
	cfg, prm, err := probeCosimConfig(nodes, ps, faults)
	if err != nil {
		return 0, 0, err
	}
	st, err := cosim.NewJobState(cfg)
	if err != nil {
		return 0, 0, err
	}
	ep, err := st.NewEpisode()
	if err != nil {
		return 0, 0, err
	}
	if err := runEpisode(ctx, ep, prm); err != nil {
		return 0, 0, err
	}
	return ps.timeCalls(nil, func() error { return runEpisode(ctx, ep, prm) })
}

// mpi operations the probes time; each is issued by every rank.
func mpiAllreduce(r *mpi.Rank, vals []float64, _ *int) {
	r.World().AllreduceSum(vals)
}

func mpiBarrier(r *mpi.Rank, _ []float64, _ *int) { r.World().Barrier() }

// mpiSendRecv is one exchange between rank pairs (2k, 2k+1).
func mpiSendRecv(r *mpi.Rank, _ []float64, payload *int) {
	const tag = 7
	peer := r.WorldRank() ^ 1
	if r.WorldRank()%2 == 0 {
		r.Send(peer, tag, payload, 8)
		r.Recv(peer, tag)
	} else {
		r.Recv(peer, tag)
		r.Send(peer, tag, payload, 8)
	}
}

// probeMPI times op inside one mpi.Run of ps.nodes ranks. Rank 0 times
// each repetition between barriers; a calibration round picks the
// repetition length, which rank 0 broadcasts.
func probeMPI(ps probeSizes, op func(r *mpi.Rank, vals []float64, payload *int)) (float64, float64, error) {
	var nsPer, allocsPer []float64
	err := mpi.Run(ps.nodes, mpi.DefaultCost(), func(r *mpi.Rank) {
		w := r.World()
		vals := []float64{float64(r.WorldRank()), 1, 2}
		payload := new(int)
		k := 8
		for rep := -1; rep < ps.reps; rep++ {
			w.Barrier()
			var t0 time.Time
			var a0 uint64
			if r.WorldRank() == 0 {
				a0 = heapObjects()
				t0 = time.Now()
			}
			for i := 0; i < k; i++ {
				op(r, vals, payload)
			}
			w.Barrier()
			next := k
			if r.WorldRank() == 0 {
				el := time.Since(t0)
				per := float64(el.Nanoseconds()) / float64(k)
				if rep < 0 {
					next = int(float64(ps.repTime.Nanoseconds()) / per)
					next = max(1, min(next, ps.repCalls))
				} else {
					nsPer = append(nsPer, per)
					allocsPer = append(allocsPer, float64(heapObjects()-a0)/float64(k))
				}
			}
			k = w.Bcast(0, next, 8).(int)
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return median(nsPer), median(allocsPer), nil
}

// probeCounter times one increment of a striped counter.
func probeCounter(_ context.Context, ps probeSizes) (float64, float64, error) {
	m := telemetry.NewRegistry().Counter("probe_total", "probe counter").With()
	return ps.timeCalls(nil, func() error {
		m.Inc()
		return nil
	})
}

// probeEmit times one event emitted into a hub with a buffered JSON
// Lines sink, the faulted search's configuration.
func probeEmit(_ context.Context, ps probeSizes) (float64, float64, error) {
	hub := telemetry.New(telemetry.Options{Sink: bufio.NewWriter(io.Discard)})
	ev := telemetry.SyncBarrier{T: 12.5, Step: 3, WallS: 0.41, SimS: 0.40, AnaS: 0.33, Slack: 0.17, Overhead: 1e-4}
	ns, allocs, err := ps.timeCalls(nil, func() error {
		ev.Step++
		hub.Emit(ev)
		return nil
	})
	if cerr := hub.Close(); err == nil {
		err = cerr
	}
	return ns, allocs, err
}

// probeLammps times one Verlet step of an in-situ rank's sub-box.
func probeLammps(_ context.Context, ps probeSizes) (float64, float64, error) {
	sys, err := lammps.New(lammps.DefaultConfig())
	if err != nil {
		return 0, 0, err
	}
	return ps.timeCalls(nil, func() error {
		sys.Run(1, lammps.RunOptions{})
		return nil
	})
}

// probeMSD times one MSD Consume of an in-situ rank's frame.
func probeMSD(_ context.Context, ps probeSizes) (float64, float64, error) {
	sys, err := lammps.New(lammps.DefaultConfig())
	if err != nil {
		return 0, 0, err
	}
	sys.Run(10, lammps.RunOptions{})
	f := sys.Snapshot()
	var msd *analysis.MSD
	return ps.timeCalls(func() { msd = analysis.NewMSD() }, func() error {
		msd.Consume(&f)
		return nil
	})
}

// probeCampaign times campaign.Run over no-op cells at the benchmark's
// job count and reports the cost per cell.
func probeCampaign(ctx context.Context, ps probeSizes) (float64, float64, error) {
	cells := make([]campaign.Cell, ps.cells)
	for i := range cells {
		cells[i] = campaign.Cell{Key: "noop", Run: func(context.Context) (any, error) { return nil, nil }}
	}
	ns, allocs, err := ps.timeCalls(nil, func() error {
		_, err := campaign.Run(ctx, cells, campaign.Options{Name: "probe", Jobs: jobs})
		return err
	})
	return ns / float64(ps.cells), allocs / float64(ps.cells), err
}
