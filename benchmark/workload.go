package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"time"

	"seesaw/internal/bench"
	"seesaw/internal/core"
	"seesaw/internal/insitu"
	"seesaw/internal/lammps"
	"seesaw/internal/policy"
	"seesaw/internal/rollout"
	"seesaw/internal/telemetry"
	"seesaw/internal/units"
)

// jobs is the fixed worker count of every op. It does not follow
// GOMAXPROCS, so one op is the same work on any machine.
const jobs = 2

// searchPolicies are the fixed registry policies every search grid
// crosses; the bandit is left out because it audits the other four.
var searchPolicies = []string{"seesaw", "time-aware", "power-aware", "static"}

// params are the inputs a workload is built from: the seed, the size
// (full, or the quick sizes the smoke test uses) and, in a traced run,
// the tracer the op reports its spans and Allocate timings to.
type params struct {
	seed  uint64
	quick bool
	tr    *tracer
}

// opOut is what one op returns: a digest of its outputs, for the output
// check, and counts its layers report, for the traced metrics.
type opOut struct {
	digest string
	layer  map[string]float64
}

// plan is a workload after set-up: points is the number of jobs one op
// simulates (for rollouts_per_s) and run executes one op from a cold
// start.
type plan struct {
	points int
	run    func(ctx context.Context, opSpan int) (opOut, error)
}

// workload is one named benchmark input set.
type workload struct {
	name  string
	setup func(p params) (*plan, error)
}

// workloads lists the benchmark's workloads in run order.
var workloads = []workload{
	{name: "search", setup: func(p params) (*plan, error) { return setupSearch(p, false) }},
	{name: "search-faults-telemetry", setup: func(p params) (*plan, error) { return setupSearch(p, true) }},
	{name: "report", setup: setupReport},
	{name: "insitu", setup: setupInsitu},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// searchGrid builds the grid one search op expands: nodes {256, 1024}
// (lane width 4 and 1), budgets 104..118 W, w {1, 2} and the four fixed
// policies at the paper's 400 steps. The faulted variant runs the
// 256-node half under a slow excursion and a kill.
func searchGrid(p params, faults bool) rollout.Grid {
	g := rollout.Grid{
		Nodes:    []int{256, 1024},
		Windows:  []int{1, 2},
		Dims:     []int{16},
		Policies: searchPolicies,
		Steps:    400,
		Seed:     p.seed,
	}
	for b := 104; b <= 118; b += 2 {
		g.Budgets = append(g.Budgets, units.Watts(b))
	}
	if p.quick {
		g.Nodes = []int{8, 16}
		g.Steps = 20
	}
	if faults {
		g.Nodes = g.Nodes[:1]
		g.Faults = []string{faultPlan(p.quick)}
	}
	if p.tr != nil {
		g.Policies = p.tr.policyNames(g.Policies)
	}
	return g
}

// faultPlan is the faulted search's plan: node 0 runs at half speed for
// a quarter of the run from its first quarter on, and the last node dies
// at mid-run.
func faultPlan(quick bool) string {
	if quick {
		return "slow:0@5x2+5,kill:7@10"
	}
	return "slow:0@100x2+100,kill:255@200"
}

// setupSearch builds one `seesawctl search` call. The faulted variant
// also attaches a fresh telemetry hub per op, streaming JSON Lines into a
// counting writer, as `search -telemetry FILE` does without the disk.
func setupSearch(p params, faults bool) (*plan, error) {
	g := searchGrid(p, faults)
	pts, err := g.Expand()
	if err != nil {
		return nil, err
	}
	tr := p.tr
	return &plan{points: len(pts), run: func(ctx context.Context, opSpan int) (opOut, error) {
		sp := tr.begin("rollout.expand", opSpan)
		points, err := g.Expand()
		tr.end(sp)
		if err != nil {
			return opOut{}, err
		}
		cache := rollout.NewStateCache()
		var hub *telemetry.Hub
		var sink countingWriter
		if faults {
			hub = telemetry.New(telemetry.Options{Sink: bufio.NewWriter(&sink)})
			cache.SetTelemetry(hub)
			for i := range points {
				points[i].Spec.Telemetry = hub
			}
		}
		sp = tr.begin("rollout.batch", opSpan)
		outs, err := rollout.Batch(ctx, points, rollout.Options{Jobs: jobs, Cache: cache, Telemetry: hub})
		tr.end(sp)
		if err != nil {
			return opOut{}, err
		}
		if err := hub.Close(); err != nil {
			return opOut{}, fmt.Errorf("telemetry sink: %w", err)
		}
		h := sha256.New()
		for _, o := range outs {
			if o.Result == nil {
				return opOut{}, fmt.Errorf("point %s: no result", o.Point.Key)
			}
			writeFloat(h, float64(o.Result.TotalTime))
			writeFloat(h, float64(o.Result.TotalEnergy))
		}
		layer := map[string]float64{}
		// Faulted and instrumented episodes bypass the cache; a grid that
		// never looked a job up does not reach it.
		if st := cache.Stats(); st.Hits+st.Misses > 0 {
			layer["rollout.cache_hits"] = float64(st.Hits)
			layer["rollout.cache_misses"] = float64(st.Misses)
			layer["rollout.cache_mb"] = float64(st.Bytes) / (1 << 20)
		}
		if faults {
			layer["telemetry.events_per_op"] = float64(sink.lines)
			layer["telemetry.sink_mb_per_op"] = float64(sink.bytes) / (1 << 20)
		}
		return opOut{digest: hex.EncodeToString(h.Sum(nil)), layer: layer}, nil
	}}, nil
}

// setupReport builds one full report regeneration at the paper defaults
// the `seesawctl all` command uses, hashing the report bytes instead of
// writing a file. The quick size is 25 steps and one run, the shortest
// length every experiment accepts. Each experiment's section becomes a
// span, ended by WriteReport's progress callback.
func setupReport(p params) (*plan, error) {
	o := bench.Options{BaseSeed: p.seed, Jobs: jobs}
	if p.quick {
		o.Steps, o.Runs = 25, 1
	}
	tr := p.tr
	return &plan{points: len(bench.All()), run: func(ctx context.Context, opSpan int) (opOut, error) {
		h := sha256.New()
		start := time.Now()
		progress := func(id string) {
			now := time.Now()
			tr.add("report."+id, opSpan, start, now)
			start = now
		}
		if err := bench.WriteReport(ctx, h, o, progress); err != nil {
			return opOut{}, err
		}
		return opOut{digest: hex.EncodeToString(h.Sum(nil))}, nil
	}}, nil
}

// setupInsitu builds one 1024-node in-situ job: 512 simulation and 512
// analysis ranks, 400 steps, j=1, MSD, the seesaw policy at 110 W per
// node. The seed drives both the cluster and the MD initial state. A
// fresh policy is built per op, as a CLI invocation does.
func setupInsitu(p params) (*plan, error) {
	ranks, steps := 512, 400
	if p.quick {
		ranks, steps = 8, 20
	}
	md := lammps.DefaultConfig()
	md.Seed = p.seed
	cfg := insitu.Config{
		SimRanks:    ranks,
		AnaRanks:    ranks,
		Steps:       steps,
		SyncEvery:   1,
		Lammps:      md,
		Analyses:    []string{"msd"},
		Constraints: core.Constraints{Budget: units.Watts(110 * 2 * ranks), MinCap: 98, MaxCap: 215},
		Seed:        p.seed,
	}
	if _, err := policy.New("seesaw", cfg.Constraints, 1); err != nil {
		return nil, err
	}
	tr := p.tr
	return &plan{points: 1, run: func(ctx context.Context, opSpan int) (opOut, error) {
		pol, err := policy.New("seesaw", cfg.Constraints, 1)
		if err != nil {
			return opOut{}, err
		}
		c := cfg
		c.Policy = tr.wrap(pol)
		sp := tr.begin("insitu.run", opSpan)
		res, err := insitu.Run(ctx, c)
		tr.end(sp)
		if err != nil {
			return opOut{}, err
		}
		return opOut{
			digest: insituDigest(res),
			layer:  map[string]float64{"insitu.syncs": float64(res.Syncs)},
		}, nil
	}}, nil
}

// insituDigest hashes the job's observable outputs: main-loop time,
// synchronization count, energy and every analysis result, by name.
func insituDigest(res *insitu.Result) string {
	h := sha256.New()
	writeFloat(h, float64(res.MainLoopTime))
	writeFloat(h, float64(res.Syncs))
	writeFloat(h, float64(res.TotalEnergy))
	names := make([]string, 0, len(res.AnalysisResults))
	for n := range res.AnalysisResults {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h.Write([]byte(n))
		for _, v := range res.AnalysisResults[n] {
			writeFloat(h, v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeFloat feeds the exact bits of v to h.
func writeFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

// countingWriter is the telemetry sink of the faulted search: it keeps
// the byte and line counts and drops the data.
type countingWriter struct {
	bytes, lines int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.bytes += int64(len(p))
	for _, b := range p {
		if b == '\n' {
			c.lines++
		}
	}
	return len(p), nil
}
