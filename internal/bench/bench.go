// Package bench defines and runs the paper's experiments: every table
// and figure of the evaluation (Section VII) has a registered experiment
// that regenerates its rows/series on the simulated platform. The
// seesawctl command exposes them on the command line; bench_test.go
// exposes them as Go benchmarks.
package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"seesaw/internal/campaign"

	"seesaw/internal/core"
	"seesaw/internal/cosim"
	"seesaw/internal/fault"
	"seesaw/internal/machine"
	"seesaw/internal/policy"
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
}

var registry = map[string]Experiment{}
var order []string

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment id " + e.ID)
	}
	registry[e.ID] = e
	order = append(order, e.ID)
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment in registration (paper) order.
func All() []Experiment {
	es := make([]Experiment, 0, len(order))
	for _, id := range order {
		es = append(es, registry[id])
	}
	return es
}

// IDs returns the registered experiment ids in order.
func IDs() []string { return append([]string(nil), order...) }

// sortedIDs returns ids sorted lexicographically (for error messages).
func sortedIDs() []string {
	ids := IDs()
	sort.Strings(ids)
	return ids
}

// UnknownExperimentError formats a helpful error for a bad id.
func UnknownExperimentError(id string) error {
	return fmt.Errorf("bench: unknown experiment %q (have %v)", id, sortedIDs())
}

// Family groups related experiments for listings (seesawctl
// experiments).
type Family struct {
	// Name is the short family label.
	Name string
	// Description is a one-line summary of what the family's
	// experiments measure.
	Description string
	// IDs lists the member experiments in registration order.
	IDs []string
}

// Families returns the registered experiments grouped into families, in
// registration (paper) order within each family.
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
	idx := map[string]int{}
	for i, f := range fams {
		idx[f.Name] = i
	}
	for _, id := range order {
		f := "paper"
		switch {
		case strings.HasPrefix(id, "abl-"):
			f = "ablations"
		case strings.HasPrefix(id, "ext-"):
			f = "extensions"
		case id == "faults":
			f = "faults"
		case id == "topologies":
			f = "topologies"
		case id == "search":
			f = "search"
		case id == "hetero":
			f = "hetero"
		}
		fams[idx[f]].IDs = append(fams[idx[f]].IDs, id)
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

// cell describes one co-simulated job cell.
type cell struct {
	spec       workload.Spec
	policy     string
	window     int
	capPerNode units.Watts
	capMode    cosim.CapMode
	simStart   units.Watts
	anaStart   units.Watts
	jobSeed    uint64
	runSeed    uint64
	faults     *fault.Plan
	classes    *machine.ClassMap
	telemetry  *telemetry.Hub
}

// runCell executes one job.
func runCell(ctx context.Context, c cell) (*cosim.Result, error) {
	n := c.spec.SimNodes + c.spec.AnaNodes
	capPer := c.capPerNode
	if capPer == 0 {
		capPer = defaultCap
	}
	cons := constraintsFor(n, capPer)
	w := c.window
	if w < 1 {
		w = 1
	}
	pol, err := policy.New(c.policy, cons, w)
	if err != nil {
		return nil, err
	}
	mode := c.capMode
	if mode == 0 && c.policy != "none" {
		mode = cosim.CapLong
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
		Noise:         machine.DefaultNoise(),
		Faults:        c.faults,
		Classes:       c.classes,
		Telemetry:     c.telemetry,
	})
}

// medianImprovement runs `runs` jobs of the policy and the static
// baseline with identical placement per job (the paper's pairing,
// Section VII-A) and returns the median % runtime improvement over the
// static baseline, along with the median policy slack.
func medianImprovement(ctx context.Context, c cell, runs int, baseSeed uint64) (impPct float64, slack float64, err error) {
	imps := make([]float64, 0, runs)
	slacks := make([]float64, 0, runs)
	for r := 0; r < runs; r++ {
		p, err := pairedRun(ctx, c, baseSeed+uint64(r)*defaultSeedGap)
		if err != nil {
			return 0, 0, err
		}
		imps = append(imps, p.imp)
		slacks = append(slacks, p.slack)
	}
	return median(imps), median(slacks), nil
}

// pairedOut is one paired policy-vs-static repeat.
type pairedOut struct {
	imp   float64
	slack float64
}

// pairedRun executes one paired comparison: the policy job and the
// static baseline with identical placement (seed), returning the %
// improvement and the policy run's mean slack.
func pairedRun(ctx context.Context, c cell, seed uint64) (pairedOut, error) {
	c.jobSeed = seed
	c.runSeed = seed + 1
	res, err := runCell(ctx, c)
	if err != nil {
		return pairedOut{}, err
	}
	sc := c
	sc.policy = "static"
	base, err := runCell(ctx, sc)
	if err != nil {
		return pairedOut{}, err
	}
	return pairedOut{
		imp:   improvementPct(base.TotalTime, res.TotalTime),
		slack: res.SyncLog.MeanSlackFrom(slackFromStep),
	}, nil
}

// enum accumulates one experiment's campaign cells. Experiments run in
// three phases: enumerate every independent job as a cell (addCell,
// paired), execute them all on the worker pool (run), then render the
// tables from the ordered results via the getters addCell returned.
type enum struct {
	name  string
	cells []campaign.Cell
	res   []campaign.Result
}

func newEnum(name string) *enum { return &enum{name: name} }

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

// paired enumerates one cell per repeat of the paper's paired
// policy-vs-static comparison and returns a getter for the median
// improvement and slack across the repeats.
func (e *enum) paired(keyPrefix string, c cell, runs int, baseSeed uint64) func() (imp, slack float64) {
	getters := make([]func() pairedOut, runs)
	for r := 0; r < runs; r++ {
		seed := baseSeed + uint64(r)*defaultSeedGap
		getters[r] = addCell(e, fmt.Sprintf("%s/r%d", keyPrefix, r), seed,
			func(ctx context.Context) (pairedOut, error) { return pairedRun(ctx, c, seed) })
	}
	return func() (float64, float64) {
		imps := make([]float64, runs)
		slacks := make([]float64, runs)
		for r, g := range getters {
			p := g()
			imps[r] = p.imp
			slacks[r] = p.slack
		}
		return median(imps), median(slacks)
	}
}

// improvementPct is (base - x)/base in percent: positive = faster than
// the static baseline.
func improvementPct(base, x units.Seconds) float64 {
	if base <= 0 {
		return 0
	}
	return (float64(base) - float64(x)) / float64(base) * 100
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
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
