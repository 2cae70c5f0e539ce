// Package bench defines and runs the paper's experiments: every table
// and figure of the evaluation (Section VII) has an entry in the
// package's one experiment table that regenerates its rows/series on
// the simulated platform. The seesawctl command exposes them on the
// command line, and WriteReport renders them all as one document.
package bench

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"slices"

	"seesaw/internal/campaign"
	"seesaw/internal/core"
	"seesaw/internal/cosim"
	"seesaw/internal/fault"
	"seesaw/internal/machine"
	"seesaw/internal/policy"
	"seesaw/internal/stats"
	"seesaw/internal/telemetry"
	"seesaw/internal/units"
	"seesaw/internal/workload"
)

// Options tune experiment execution.
type Options struct {
	// Steps overrides each run's Verlet step count (0 keeps the
	// experiment's default of 400, the paper's setting). Tests use a
	// smaller value to keep the suite fast.
	Steps int
	// Runs overrides the number of repeated jobs per cell (0 keeps the
	// experiment default: 3 for medians, 7 for Table I).
	Runs int
	// BaseSeed offsets all job seeds, for replicating experiments under
	// different random draws.
	BaseSeed uint64
	// Jobs bounds how many experiment cells run concurrently (0 means
	// runtime.GOMAXPROCS(0)). Reports are byte-identical at any value:
	// cells are pure functions of their seeds and results are assembled
	// in enumeration order.
	Jobs int
	// Telemetry, when non-nil, is threaded into every co-simulated job
	// the experiment runs, collecting its metrics and event stream. Nil
	// disables instrumentation at no cost.
	Telemetry *telemetry.Hub
}

func (o Options) steps(def int) int {
	if o.Steps > 0 {
		return o.Steps
	}
	return def
}

func (o Options) runs(def int) int {
	if o.Runs > 0 {
		return o.Runs
	}
	return def
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	// ID is the artifact identifier: "fig1" ... "fig9b", "table1",
	// "table2".
	ID string
	// Title is the paper artifact's caption summary.
	Title string
	// Run executes the experiment and renders its tables to w. It
	// enumerates independent cells and executes them on the campaign
	// engine's worker pool (bounded by Options.Jobs); cancelling ctx
	// aborts queued and in-flight cells and returns the context error.
	Run func(ctx context.Context, o Options, w io.Writer) error
	// family names the Families entry the experiment is listed under.
	family string
}

// experiments is every experiment in report order: the order
// WriteReport renders them in, All returns and Families keeps within
// each family. The report golden and benchmark/pinned.json are pinned
// to this order.
var experiments = []Experiment{
	{ID: "abl-ewma", family: "ablations", Run: runAblEWMA,
		Title: "Ablation: SeeSAw with and without the Eq. 3-4 EWMA damping under measurement noise"},
	{ID: "abl-window", family: "ablations", Run: runAblWindow,
		Title: "Ablation: measurement window w vs reactivity with an intermittent high-demand analysis"},
	{ID: "abl-hier", family: "ablations", Run: runAblHier,
		Title: "Extension: hierarchical (per-node) allocation vs uniform partition caps under node heterogeneity"},
	{ID: "abl-explore", family: "ablations", Run: runAblExplore,
		Title: "Extension: exploration probes vs plain SeeSAw on the low-demand local optimum"},
	{ID: "abl-oracle", family: "ablations", Run: runAblOracle,
		Title: "Reference: each policy vs the best static split found by exhaustive sweep"},
	{ID: "ext-sched", family: "extensions", Run: runExtSched,
		Title: "Extension: system-wide power management across concurrent in-situ jobs"},
	{ID: "ext-powershift", family: "extensions", Run: runExtPowerShift,
		Title: "Baseline: PowerShift-style offline profiles vs SeeSAw's online feedback"},
	{ID: "abl-transient", family: "ablations", Run: runAblTransient,
		Title: "Ablation: the simulation startup transient's effect on each policy"},
	{ID: "faults", family: "faults", Run: runFaults,
		Title: "Faults: policy resilience to a mid-run node kill and a 2x slow-node excursion (8 nodes, LAMMPS+MSD)"},
	{ID: "fig1", family: "paper", Run: runFig1,
		Title: "Fig 1: power trace of simulation and analysis nodes exposing periodic synchronization (200 ms sampling)"},
	{ID: "fig2", family: "paper", Run: runFig2,
		Title: "Fig 2: shifting power between two tasks so both finish at an earlier, equal time"},
	{ID: "table1", family: "paper", Run: runTable1,
		Title: "Table I: run-to-run and job-to-job variability across 7 runs for different power-cap types (128 nodes)"},
	{ID: "fig3a", family: "paper", Run: runFig3a,
		Title: "Fig 3a: policy performance vs the static baseline for different analyses (128 nodes, w=1, j=1, median of 3)"},
	{ID: "fig3b", family: "paper", Run: runFig3b,
		Title: "Fig 3b: policy performance at scale (256-1024 nodes, median of 3)"},
	{ID: "fig4", family: "paper", Run: runFig4,
		Title: "Fig 4: per-synchronization power allocation and normalized slack, LAMMPS+MSD on 128 nodes (dim=16, j=1)"},
	{ID: "fig5", family: "paper", Run: runFig5,
		Title: "Fig 5: allocated vs measured power at 1024 nodes (all analyses), SeeSAw vs time-aware"},
	{ID: "search", family: "search", Run: runSearchExperiment,
		Title: "Search: batched rollouts rank fixed policies against a per-window bandit across fault and topology scenarios (8 nodes, LAMMPS+MSD)"},
	{ID: "fig6", family: "paper", Run: runFig6,
		Title: "Fig 6: SeeSAw window w and LAMMPS synchronization rate j (1024 nodes, dim=48, all analyses)"},
	{ID: "table2", family: "paper", Run: runTable2,
		Title: "Table II: SeeSAw improvement with mixed analysis intervals (128 nodes, dim=16, w=1, median of 3)"},
	{ID: "fig7", family: "paper", Run: runFig7,
		Title: "Fig 7: unbalanced initial power distributions (128 nodes, dim=36, all analyses, w=2, j=1)"},
	{ID: "fig8", family: "paper", Run: runFig8,
		Title: "Fig 8: SeeSAw improvement over static for varying power caps (diminishing returns past ~140 W)"},
	{ID: "fig9a", family: "paper", Run: runFig9a,
		Title: "Fig 9a: SeeSAw overhead as a percentage of each synchronization interval (128 and 1024 nodes)"},
	{ID: "fig9b", family: "paper", Run: runFig9b,
		Title: "Fig 9b: standalone SeeSAw allocation duration across power caps (loop of 10 iterations)"},
	{ID: "topologies", family: "topologies", Run: runTopologies,
		Title: "Topologies: the four policies across space-shared, time-shared, in-transit and DAG placements (16 nodes, workflow engine)"},
	{ID: "hetero", family: "hetero", Run: runHetero,
		Title: "Heterogeneity: the four policies on mixed CPU/GPU partitions vs the uniform static division (8 nodes, LAMMPS+MSD)"},
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// All returns every experiment in report order.
func All() []Experiment { return slices.Clone(experiments) }

// UnknownExperimentError formats a helpful error for a bad id, listing
// the valid ids sorted.
func UnknownExperimentError(id string) error {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.ID
	}
	slices.Sort(ids)
	return fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}

// Family groups related experiments for listings (seesawctl
// experiments).
type Family struct {
	// Name is the short family label.
	Name string
	// Description is a one-line summary of what the family's
	// experiments measure.
	Description string
	// IDs lists the member experiments in report order.
	IDs []string
}

// Families returns the experiments grouped into families, in report
// order within each family.
func Families() []Family {
	fams := []Family{
		{Name: "paper", Description: "the paper's figures and tables (Section VII) regenerated on the simulated platform"},
		{Name: "ablations", Description: "allocator ablations: EWMA smoothing, window length, hierarchy, exploration, oracle bound, setup transient"},
		{Name: "extensions", Description: "beyond-paper extensions: alternative schedulers and inter-partition power shifting"},
		{Name: "faults", Description: "node kills and slowdown excursions mid-run: policy re-convergence and survivor accounting"},
		{Name: "topologies", Description: "the four policies across space-shared, time-shared, in-transit and DAG workflow placements"},
		{Name: "search", Description: "batched policy search through the rollout environment: fixed policies vs a per-window bandit"},
		{Name: "hetero", Description: "heterogeneous device classes: the four policies on mixed CPU/GPU partitions vs the uniform static division"},
	}
	for _, e := range experiments {
		i := slices.IndexFunc(fams, func(f Family) bool { return f.Name == e.family })
		fams[i].IDs = append(fams[i].IDs, e.ID)
	}
	return fams
}

// Experiment-wide defaults mirroring Section VII's setup.
const (
	defaultSteps   = 400
	defaultCap     = units.Watts(110)
	minCap         = units.Watts(98)
	maxCap         = units.Watts(215)
	defaultRuns    = 3
	table1Runs     = 7
	slackFromStep  = 10 // the paper averages slack "from the 10th step"
	defaultDim     = 16
	defaultBigDim  = 48
	defaultMidDim  = 36
	nodes128Half   = 64  // 128-node jobs: 64 sim + 64 ana
	nodes1024Half  = 512 // 1024-node jobs
	defaultSeedGap = 7919
)

// constraintsFor builds the budget for n total nodes at capPerNode.
func constraintsFor(n int, capPerNode units.Watts) core.Constraints {
	return core.Constraints{Budget: capPerNode * units.Watts(n), MinCap: minCap, MaxCap: maxCap}
}

// cell describes one co-simulated job. A cell that sets only the
// workload, the seeds and a registry policy runs the paper's setup:
// 110 W per node on the 98-215 W range, long-term caps from an even
// split, w=1 and the default noise model.
type cell struct {
	spec   workload.Spec
	policy string
	window int
	// factory, when set, builds the policy in place of the registry
	// name: the ablations' allocators that have no registry entry.
	factory    policy.Factory
	capPerNode units.Watts
	// capMode's zero value, cosim.CapNone, means cosim.CapLong here;
	// uncapped asks for an uncapped run.
	capMode  cosim.CapMode
	uncapped bool
	simStart units.Watts
	anaStart units.Watts
	jobSeed  uint64
	runSeed  uint64
	// noise is the job's variability model; zero means
	// machine.DefaultNoise().
	noise         machine.NoiseModel
	traceSegments bool
	faults        *fault.Plan
	classes       *machine.ClassMap
	telemetry     *telemetry.Hub
}

// runCell executes one job. It is the harness's one path to cosim.Run.
func runCell(ctx context.Context, c cell) (*cosim.Result, error) {
	n := c.spec.SimNodes + c.spec.AnaNodes
	cons := constraintsFor(n, cmp.Or(c.capPerNode, defaultCap))
	w := max(c.window, 1)
	var pol core.Policy
	var err error
	if c.factory != nil {
		pol, err = c.factory(cons, w)
	} else {
		pol, err = policy.New(c.policy, cons, w)
	}
	if err != nil {
		return nil, err
	}
	mode := cmp.Or(c.capMode, cosim.CapLong)
	if c.uncapped {
		mode = cosim.CapNone
	}
	noise := c.noise
	if noise == (machine.NoiseModel{}) {
		noise = machine.DefaultNoise()
	}
	return cosim.Run(ctx, cosim.Config{
		Spec:          c.spec,
		Policy:        pol,
		Constraints:   cons,
		InitialSimCap: c.simStart,
		InitialAnaCap: c.anaStart,
		CapMode:       mode,
		Seed:          c.jobSeed,
		RunSeed:       c.runSeed,
		Noise:         noise,
		TraceSegments: c.traceSegments,
		Faults:        c.faults,
		Classes:       c.classes,
		Telemetry:     c.telemetry,
	})
}

// enum accumulates one experiment's campaign cells. Experiments run in
// three phases: enumerate every independent job as a cell (addCell,
// result, baseline, paired), execute them all on the worker pool (run),
// then render the tables from the ordered results via the getters those
// returned.
type enum struct {
	name  string
	cells []campaign.Cell
	res   []campaign.Result
	// baselines maps baselineKey of a static baseline job to the getter
	// of the one cell that runs it.
	baselines map[string]func() units.Seconds
}

func newEnum(name string) *enum {
	return &enum{name: name, baselines: map[string]func() units.Seconds{}}
}

// run executes the enumerated cells with concurrency o.Jobs. After it
// returns nil, every getter is ready.
func (e *enum) run(ctx context.Context, o Options) error {
	rs, err := campaign.Run(ctx, e.cells, campaign.Options{
		Name:      e.name,
		Jobs:      o.Jobs,
		Telemetry: o.Telemetry,
	})
	e.res = rs
	return err
}

// addCell enumerates one cell computing a T and returns a getter for
// its value, valid after run succeeds.
func addCell[T any](e *enum, key string, seed uint64, fn func(ctx context.Context) (T, error)) func() T {
	idx := len(e.cells)
	e.cells = append(e.cells, campaign.Cell{
		Key:  key,
		Seed: seed,
		Run:  func(ctx context.Context) (any, error) { return fn(ctx) },
	})
	return func() T {
		if e.res == nil {
			panic("bench: cell value read before enum.run")
		}
		return e.res[idx].Value.(T)
	}
}

// result enumerates job c as a cell under key and returns a getter for
// its result.
func (e *enum) result(key string, c cell) func() *cosim.Result {
	return addCell(e, key, c.jobSeed, func(ctx context.Context) (*cosim.Result, error) {
		return runCell(ctx, c)
	})
}

// paired enumerates each repeat of the paper's paired policy-vs-static
// comparison (Section VII-A) and returns a getter for the median
// improvement over the static baseline and the median policy slack
// across the repeats. Repeat r runs job seed baseSeed+r*defaultSeedGap
// and run seed one above it. Only the policy job is a cell of its own:
// the repeat's static baseline comes from baseline, so every policy and
// window the experiment pairs with the same job shares one baseline
// cell.
func (e *enum) paired(keyPrefix string, c cell, runs int, baseSeed uint64) func() (imp, slack float64) {
	type policyOut struct {
		total units.Seconds
		slack float64
	}
	pols := make([]func() policyOut, runs)
	bases := make([]func() units.Seconds, runs)
	for r := 0; r < runs; r++ {
		rc := c
		rc.jobSeed = baseSeed + uint64(r)*defaultSeedGap
		rc.runSeed = rc.jobSeed + 1
		key := fmt.Sprintf("%s/r%d", keyPrefix, r)
		bases[r] = e.baseline(key+"/static", rc)
		pols[r] = addCell(e, key, rc.jobSeed, func(ctx context.Context) (policyOut, error) {
			res, err := runCell(ctx, rc)
			if err != nil {
				return policyOut{}, err
			}
			return policyOut{res.TotalTime, res.SyncLog.MeanSlackFrom(slackFromStep)}, nil
		})
	}
	return func() (float64, float64) {
		imps := make([]float64, runs)
		slacks := make([]float64, runs)
		for r, g := range pols {
			p := g()
			imps[r] = improvementPct(bases[r](), p.total)
			slacks[r] = p.slack
		}
		return stats.Median(imps), stats.Median(slacks)
	}
}

// baseline returns a getter for the runtime of job c under the static
// policy. The first request for a job enumerates its cell under key;
// later requests for the same job share that cell.
func (e *enum) baseline(key string, c cell) func() units.Seconds {
	k := baselineKey(c)
	if g, ok := e.baselines[k]; ok {
		return g
	}
	c.policy, c.window, c.factory = "static", 1, nil
	g := addCell(e, key, c.jobSeed, func(ctx context.Context) (units.Seconds, error) {
		res, err := runCell(ctx, c)
		if err != nil {
			return 0, err
		}
		return res.TotalTime, nil
	})
	e.baselines[k] = g
	return g
}

// baselineKey identifies the static baseline of job c. It renders every
// cell field, so two jobs that differ anywhere but their policy never
// share a baseline. The policy fields are fixed: the baseline's policy
// is static by definition, and the static factory ignores the window.
// Pointer fields render as addresses. That is sound because the
// baseline cell keeps its pointers alive, so no address can be reused
// for another value while its key is in the map.
func baselineKey(c cell) string {
	c.policy, c.window, c.factory = "static", 1, nil
	return fmt.Sprintf("%#v", c)
}

// impPct renders a paired getter's median improvement, e.g. "+3.21%".
func impPct(g func() (imp, slack float64)) string {
	imp, _ := g()
	return fmt.Sprintf("%+.2f%%", imp)
}

// improvementPct is (base - x)/base in percent: positive = faster than
// the static baseline.
func improvementPct(base, x units.Seconds) float64 {
	if base <= 0 {
		return 0
	}
	return (float64(base) - float64(x)) / float64(base) * 100
}

// spec128 builds a 128-node workload.
func spec128(dim, j, steps int, analyses []workload.AnalysisTask) workload.Spec {
	return workload.Spec{
		SimNodes: nodes128Half, AnaNodes: nodes128Half,
		Dim: dim, J: j, Steps: steps, Analyses: analyses,
	}
}

// specAt builds a workload at an arbitrary total node count (split
// evenly, as in all of the paper's results).
func specAt(totalNodes, dim, j, steps int, analyses []workload.AnalysisTask) workload.Spec {
	return workload.Spec{
		SimNodes: totalNodes / 2, AnaNodes: totalNodes - totalNodes/2,
		Dim: dim, J: j, Steps: steps, Analyses: analyses,
	}
}
