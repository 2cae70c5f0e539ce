// Batched rollouts: fan a grid of (nodes, dims, faults, classes,
// topology, budget, w, policy) points across the campaign engine's
// worker pool. Each point is one campaign cell: a full episode driven
// through Env.Rollout with a registry-constructed policy, so batch
// throughput measures the whole policy-search loop, not a shortcut
// around it.
//
// Each worker owns one Env (via the campaign worker-state hook), and
// every Env shares one bounded StateCache, so a sweep pays each
// distinct job's precompute — including its memoized noise traces —
// once and each worker's node population is rebuilt only when its cell
// stream crosses to a different job. Grid enumeration nests the job
// axes (nodes, dims, faults, classes, topology) outside the episode
// axes (budget, w, policy), so cells of one job are consecutive, which
// is what keeps the per-worker single-entry episode pool warm.
package rollout

import (
	"context"
	"fmt"
	"strings"

	"seesaw/internal/campaign"
	"seesaw/internal/fault"
	"seesaw/internal/machine"
	"seesaw/internal/policy"
	"seesaw/internal/telemetry"
	"seesaw/internal/units"
	"seesaw/internal/workflow"
	"seesaw/internal/workload"
)

// Point is one rollout of the batch: a spec plus the registry policy
// that supplies the actions.
type Point struct {
	// Key identifies the point in results and errors,
	// e.g. "faults=kill:7@8/seesaw".
	Key string
	// Spec is the episode description.
	Spec Spec
	// Policy is the registry name of the acting allocator.
	Policy string
	// Window is the policy's reallocation window w (1 when zero).
	Window int
}

// Outcome is one point's result, in the point's enumeration slot.
type Outcome struct {
	// Point echoes the input point.
	Point Point
	// Result is the episode outcome (nil on error).
	Result *Result
	// Err is the point's failure, including context cancellation for
	// points skipped after a cancel.
	Err error
}

// Options tune a batch invocation.
type Options struct {
	// Name labels the batch in telemetry ("search" by default).
	Name string
	// Jobs bounds worker concurrency; <= 0 means GOMAXPROCS. Outcomes
	// are byte-identical at any value: points are pure functions of
	// their specs and results are assembled in enumeration order.
	Jobs int
	// Cache, when non-nil, supplies the shared JobState cache so
	// callers can share precompute across batches and read hit/eviction
	// stats afterwards; nil gets a private bounded cache.
	Cache *StateCache
	// Telemetry, when non-nil, receives campaign progress events.
	Telemetry *telemetry.Hub
}

// Batch runs every point on the campaign worker pool and returns one
// Outcome per point, in point order. The returned error is the first
// failed point's error; the Outcome slice is always complete.
func Batch(ctx context.Context, points []Point, o Options) ([]Outcome, error) {
	name := o.Name
	if name == "" {
		name = "search"
	}

	// Factories resolved once per distinct policy name; an unknown name
	// still fails per cell (the cells that use it), not the whole batch.
	type lookup struct {
		fac policy.Factory
		err error
	}
	factories := map[string]lookup{}
	for _, p := range points {
		if _, ok := factories[p.Policy]; !ok {
			fac, err := policy.Lookup(p.Policy)
			factories[p.Policy] = lookup{fac: fac, err: err}
		}
	}

	cache := o.Cache
	if cache == nil {
		cache = NewStateCache()
	}

	cells := make([]campaign.Cell, len(points))
	for i, p := range points {
		cells[i] = campaign.Cell{
			Key:  p.Key,
			Seed: p.Spec.Seed,
			Run: func(ctx context.Context) (any, error) {
				lk := factories[p.Policy]
				if lk.err != nil {
					return nil, lk.err
				}
				n := p.Spec.Workload.SimNodes + p.Spec.Workload.AnaNodes
				pol, err := lk.fac(p.Spec.constraints(n), max(p.Window, 1))
				if err != nil {
					return nil, err
				}
				return campaign.WorkerValue(ctx).(*Env).Rollout(ctx, p.Spec, pol)
			},
		}
	}
	rs, err := campaign.Run(ctx, cells, campaign.Options{
		Name:        name,
		Jobs:        o.Jobs,
		Telemetry:   o.Telemetry,
		WorkerState: func() any { return NewEnvWith(cache) },
	})
	outs := make([]Outcome, len(points))
	for i, r := range rs {
		res, _ := r.Value.(*Result)
		outs[i] = Outcome{Point: points[i], Result: res, Err: r.Err}
	}
	return outs, err
}

// Grid enumerates a search space as the cross product of its axes; zero
// axes fall back to one default point, so a Grid zero value expands to
// a single paper-default rollout.
type Grid struct {
	// Nodes are total node counts (split evenly); default 8.
	Nodes []int
	// Budgets are per-node budgets in Watts; default 110 (the paper's).
	Budgets []units.Watts
	// Windows are reallocation windows w; default 1.
	Windows []int
	// Dims are problem sizes; default 16.
	Dims []int
	// Faults are fault plans in internal/fault's grammar ("" = none).
	Faults []string
	// Classes are device-class maps in machine.ClassMap's grammar
	// ("" = homogeneous). A non-empty value appends a "/classes=..."
	// segment to the point key; the homogeneous default leaves keys
	// unchanged.
	Classes []string
	// Topologies are placement names ("" = space-shared).
	Topologies []string
	// Policies are registry policy names; default policy.Names().
	Policies []string
	// Steps is the Verlet step count per episode (400 when zero);
	// J synchronizes every j-th step (1 when zero).
	Steps, J int
	// Analyses names the analysis kernels; default {"msd"}.
	Analyses []string
	// Seed is the base job seed (1 when zero).
	Seed uint64
}

// axis returns vals, or the single fallback when empty.
func axis[T any](vals []T, fallback T) []T {
	if len(vals) == 0 {
		return []T{fallback}
	}
	return vals
}

// Expand enumerates the grid's points in deterministic axis order:
// nodes, dims, faults, classes and topologies (the job) outermost, then
// budgets, windows and policies. Invalid axis values (a node count
// below 2, a non-positive budget or dim, a window below 1, a bad fault
// plan, an unknown topology or policy) surface as errors here, before
// any rollout runs.
func (g Grid) Expand() ([]Point, error) {
	steps := g.Steps
	if steps == 0 {
		steps = 400
	}
	j := g.J
	if j == 0 {
		j = 1
	}
	seed := g.Seed
	if seed == 0 {
		seed = 1
	}
	analyses := axis(g.Analyses, "msd")
	tasks := workload.Tasks(analyses...)

	policies := g.Policies
	if len(policies) == 0 {
		policies = policy.Names()
	}
	for _, p := range policies {
		if !policy.Valid(p) {
			return nil, &policy.UnknownPolicyError{Name: p, Valid: policy.Names()}
		}
	}
	// An explicit zero would otherwise fall through to the spec's or
	// policy's default (110 W, w=1) and run under a misleading key.
	for _, n := range g.Nodes {
		if n < 2 {
			return nil, fmt.Errorf("rollout: node count %d, need >= 2 (one per partition)", n)
		}
	}
	for _, b := range g.Budgets {
		if b <= 0 || !units.IsFinite(float64(b)) {
			return nil, fmt.Errorf("rollout: per-node budget %g W, need positive and finite", float64(b))
		}
	}
	for _, w := range g.Windows {
		if w < 1 {
			return nil, fmt.Errorf("rollout: window %d, need >= 1", w)
		}
	}
	for _, d := range g.Dims {
		if d <= 0 {
			return nil, fmt.Errorf("rollout: dim %d, need > 0", d)
		}
	}
	for _, t := range g.Topologies {
		if t == "" || t == "space-shared" {
			continue
		}
		// Validate the name only; node-count constraints (e.g. dag's
		// divisible-by-8 rule) depend on the Nodes axis and surface per
		// point at rollout time.
		known := false
		for _, n := range workflow.TopologyNames() {
			if t == n {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("rollout: unknown topology %q (valid: %v)", t, workflow.TopologyNames())
		}
	}

	// Scalar knobs that default in most grids appear in point keys only
	// when they deviate, so default grids keep their established keys
	// while two grids differing in steps/j/analyses/seed can never
	// collide on a key.
	var extra string
	if steps != 400 {
		extra += fmt.Sprintf("steps%d/", steps)
	}
	if j != 1 {
		extra += fmt.Sprintf("j%d/", j)
	}
	if len(analyses) != 1 || analyses[0] != "msd" {
		extra += "an=" + strings.Join(analyses, "+") + "/"
	}
	if seed != 1 {
		extra += fmt.Sprintf("seed%d/", seed)
	}

	nodesAx := axis(g.Nodes, 8)
	budgetsAx := axis(g.Budgets, defaultCapPerNode)
	windowsAx := axis(g.Windows, 1)
	dimsAx := axis(g.Dims, 16)
	faultsAx := axis(g.Faults, "")
	classesAx := axis(g.Classes, "")
	toposAx := axis(g.Topologies, "")

	// The job axes (nodes, dims, faults, classes, topologies) nest
	// outside the episode axes (budgets, windows, policies), so each
	// job's points are consecutive and a worker rebuilds its pooled
	// episode only when the job changes.
	points := make([]Point, 0, len(nodesAx)*len(budgetsAx)*len(windowsAx)*
		len(dimsAx)*len(faultsAx)*len(classesAx)*len(toposAx)*len(policies))
	for _, nodes := range nodesAx {
		for _, dim := range dimsAx {
			for _, fp := range faultsAx {
				plan, err := fault.Parse(fp)
				if err != nil {
					return nil, fmt.Errorf("rollout: %w", err)
				}
				for _, cs := range classesAx {
					classes, err := machine.ParseClassMap(cs)
					if err != nil {
						return nil, fmt.Errorf("rollout: %w", err)
					}
					// The classes segment is inserted before the policy
					// only when heterogeneous, so class-free grids keep
					// their keys and the policy stays the trailing
					// segment (scenario grouping strips it).
					het := ""
					if cs != "" {
						het = "classes=" + cs + "/"
					}
					for _, topo := range toposAx {
						for _, budget := range budgetsAx {
							for _, w := range windowsAx {
								for _, pol := range policies {
									key := fmt.Sprintf("n%d/b%g/w%d/dim%d/%sfaults=%s/topo=%s/%s%s",
										nodes, float64(budget), w, dim, extra, orNone(fp), orName(topo), het, pol)
									points = append(points, Point{
										Key: key,
										Spec: Spec{
											Workload: workload.Spec{
												SimNodes: nodes / 2, AnaNodes: nodes - nodes/2,
												Dim: dim, J: j, Steps: steps, Analyses: tasks,
											},
											Topology:   topo,
											CapPerNode: budget,
											Seed:       seed,
											RunSeed:    seed + 1,
											Noise:      machine.DefaultNoise(),
											Faults:     plan,
											Classes:    classes,
										},
										Policy: pol,
										Window: w,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return points, nil
}

// orNone renders an empty fault plan as "none" in point keys.
func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// orName renders an empty topology as "space-shared" in point keys.
func orName(s string) string {
	if s == "" {
		return "space-shared"
	}
	return s
}
