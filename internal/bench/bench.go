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

// enum accumulates one experiment's campaign cells. Experiments run in
// three phases: enumerate every independent job as a cell (addCell,
// paired), execute them all on the worker pool (run), then render the
// tables from the ordered results via the getters addCell returned.
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
	c.policy, c.window = "static", 1
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
// cell field, so two jobs that differ anywhere but policy and window
// never share a baseline. Those two are fixed: the baseline's policy is
// static by definition, and the static factory ignores the window.
// Pointer fields render as addresses. That is sound because the
// baseline cell keeps its pointers alive, so no address can be reused
// for another value while its key is in the map.
func baselineKey(c cell) string {
	c.policy, c.window = "static", 1
	return fmt.Sprintf("%#v", c)
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
