// Ablation experiments: design choices DESIGN.md calls out, plus the
// paper's future-work extensions (Section VIII) implemented in package
// core. These go beyond the paper's figures; they quantify why SeeSAw is
// built the way it is and what the proposed extensions buy.
package bench

import (
	"context"
	"fmt"
	"io"

	"seesaw/internal/core"
	"seesaw/internal/cosim"
	"seesaw/internal/machine"
	"seesaw/internal/policy"
	"seesaw/internal/sched"
	"seesaw/internal/trace"
	"seesaw/internal/units"
	"seesaw/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "abl-ewma",
		Title: "Ablation: SeeSAw with and without the Eq. 3-4 EWMA damping under measurement noise",
		Run:   runAblEWMA,
	})
	register(Experiment{
		ID:    "abl-window",
		Title: "Ablation: measurement window w vs reactivity with an intermittent high-demand analysis",
		Run:   runAblWindow,
	})
	register(Experiment{
		ID:    "abl-hier",
		Title: "Extension: hierarchical (per-node) allocation vs uniform partition caps under node heterogeneity",
		Run:   runAblHier,
	})
	register(Experiment{
		ID:    "abl-explore",
		Title: "Extension: exploration probes vs plain SeeSAw on the low-demand local optimum",
		Run:   runAblExplore,
	})
	register(Experiment{
		ID:    "abl-oracle",
		Title: "Reference: each policy vs the best static split found by exhaustive sweep",
		Run:   runAblOracle,
	})
	register(Experiment{
		ID:    "ext-sched",
		Title: "Extension: system-wide power management across concurrent in-situ jobs",
		Run:   runExtSched,
	})
	register(Experiment{
		ID:    "ext-powershift",
		Title: "Baseline: PowerShift-style offline profiles vs SeeSAw's online feedback",
		Run:   runExtPowerShift,
	})
	register(Experiment{
		ID:    "abl-transient",
		Title: "Ablation: the simulation startup transient's effect on each policy",
		Run:   runAblTransient,
	})
}

// ablRun executes one job with an explicitly constructed policy.
func ablRun(ctx context.Context, spec workload.Spec, policy core.Policy, cons core.Constraints,
	noise machine.NoiseModel, seed uint64) (*cosim.Result, error) {
	return cosim.Run(ctx, cosim.Config{
		Spec: spec, Policy: policy, Constraints: cons,
		CapMode: cosim.CapLong, Seed: seed, RunSeed: seed + 1, Noise: noise,
	})
}

// ablTimeCell enumerates one ablRun cell returning its total time. The
// policy is constructed inside the cell (policies are stateful and must
// not be shared across cells).
func ablTimeCell(e *enum, key string, spec workload.Spec, mk func() core.Policy,
	cons core.Constraints, noise machine.NoiseModel, seed uint64) func() units.Seconds {
	return addCell(e, key, seed, func(ctx context.Context) (units.Seconds, error) {
		res, err := ablRun(ctx, spec, mk(), cons, noise, seed)
		if err != nil {
			return 0, err
		}
		return res.TotalTime, nil
	})
}

// mkStatic adapts core.NewStatic to the policy-factory shape cells use.
func mkStatic() core.Policy { return core.NewStatic() }

// runAblEWMA compares damped vs undamped SeeSAw at increasing
// power-measurement noise: without the EWMA the allocator chases ripple.
func runAblEWMA(ctx context.Context, o Options, w io.Writer) error {
	steps := o.steps(defaultSteps)
	// A small job: with only 4 nodes per partition the partition-level
	// power average barely filters per-node ripple, so the EWMA is the
	// only guard (at 64+ nodes the averaging itself hides this effect).
	spec := specAt(8, defaultDim, 1, steps, workload.Tasks("msd"))
	cons := constraintsFor(8, defaultCap)
	sigmas := []float64{0.0, 0.035, 0.10}

	type row struct {
		base, with, without func() units.Seconds
	}
	e := newEnum("abl-ewma")
	var rows []row
	for _, sigma := range sigmas {
		noise := machine.DefaultNoise()
		noise.PowerSigma = sigma
		mkSeeSAw := func(noEWMA bool) func() core.Policy {
			return func() core.Policy {
				return core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cons, Window: 1, NoEWMA: noEWMA})
			}
		}
		prefix := fmt.Sprintf("sigma%.3f", sigma)
		rows = append(rows, row{
			base:    ablTimeCell(e, prefix+"/static", spec, mkStatic, cons, noise, o.BaseSeed+201),
			with:    ablTimeCell(e, prefix+"/ewma", spec, mkSeeSAw(false), cons, noise, o.BaseSeed+201),
			without: ablTimeCell(e, prefix+"/no-ewma", spec, mkSeeSAw(true), cons, noise, o.BaseSeed+201),
		})
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	tbl := trace.NewTable("SeeSAw improvement over static, with and without EWMA damping (4+4 nodes)",
		"power ripple sigma", "with EWMA", "without EWMA")
	for i, sigma := range sigmas {
		base := rows[i].base()
		tbl.AddRow(fmt.Sprintf("%.3f", sigma),
			fmt.Sprintf("%+.2f%%", improvementPct(base, rows[i].with())),
			fmt.Sprintf("%+.2f%%", improvementPct(base, rows[i].without())))
	}
	return tbl.Render(w)
}

// runAblWindow measures the cost of the w window under heavy
// measurement ripple on a small job (weak partition averaging). The
// result mirrors Figure 6: even then, frequent reallocation wins —
// the Eq. 3-4 EWMA (see abl-ewma) already supplies the noise
// protection, so larger windows only delay adaptation.
func runAblWindow(ctx context.Context, o Options, w io.Writer) error {
	steps := o.steps(defaultSteps)
	spec := specAt(8, defaultDim, 1, steps, workload.Tasks("msd"))
	cons := constraintsFor(8, defaultCap)
	noise := machine.DefaultNoise()
	noise.PowerSigma = 0.10
	noise.JitterSigma = 0.02
	windows := []int{1, 2, 4, 8, 16}
	runs := o.runs(defaultRuns)

	e := newEnum("abl-window")
	var getters [][]func() float64 // [window][repeat] -> improvement
	for _, win := range windows {
		win := win
		var reps []func() float64
		for r := 0; r < runs; r++ {
			seed := o.BaseSeed + 211 + uint64(r)*defaultSeedGap
			reps = append(reps, addCell(e, fmt.Sprintf("w%d/r%d", win, r), seed,
				func(ctx context.Context) (float64, error) {
					base, err := ablRun(ctx, spec, core.NewStatic(), cons, noise, seed)
					if err != nil {
						return 0, err
					}
					ss := core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cons, Window: win})
					res, err := ablRun(ctx, spec, ss, cons, noise, seed)
					if err != nil {
						return 0, err
					}
					return improvementPct(base.TotalTime, res.TotalTime), nil
				}))
		}
		getters = append(getters, reps)
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	tbl := trace.NewTable("SeeSAw improvement over static under heavy measurement noise (4+4 nodes)",
		"w", "improvement")
	for i, win := range windows {
		imps := make([]float64, len(getters[i]))
		for r, g := range getters[i] {
			imps[r] = g()
		}
		tbl.AddRow(win, fmt.Sprintf("%+.2f%%", median(imps)))
	}
	return tbl.Render(w)
}

// runAblHier evaluates the hierarchical extension under strong node
// heterogeneity: uniform partition caps leave the slowest node gating
// the partition; per-node offsets claw some of that back.
func runAblHier(ctx context.Context, o Options, w io.Writer) error {
	steps := o.steps(defaultSteps)
	spec := spec128(defaultMidDim, 1, steps, workload.Tasks("vacf"))
	cons := constraintsFor(2*nodes128Half, defaultCap)
	skews := []float64{0.004, 0.012, 0.025}

	type row struct {
		base, plain, hier func() units.Seconds
	}
	e := newEnum("abl-hier")
	var rows []row
	for _, skew := range skews {
		noise := machine.DefaultNoise()
		noise.SkewSigma = skew
		noise.PowerEffSigma = skew
		prefix := fmt.Sprintf("skew%.3f", skew)
		rows = append(rows, row{
			base: ablTimeCell(e, prefix+"/static", spec, mkStatic, cons, noise, o.BaseSeed+221),
			plain: ablTimeCell(e, prefix+"/plain", spec, func() core.Policy {
				return core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cons, Window: 1})
			}, cons, noise, o.BaseSeed+221),
			hier: ablTimeCell(e, prefix+"/hier", spec, func() core.Policy {
				return core.MustNewHierarchical(DefaultHier(cons))
			}, cons, noise, o.BaseSeed+221),
		})
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	tbl := trace.NewTable("Runtime vs static under increasing node heterogeneity (128 nodes, VACF)",
		"node skew sigma", "seesaw", "seesaw-hierarchical")
	for i, skew := range skews {
		base := rows[i].base()
		tbl.AddRow(fmt.Sprintf("%.3f", skew),
			fmt.Sprintf("%+.2f%%", improvementPct(base, rows[i].plain())),
			fmt.Sprintf("%+.2f%%", improvementPct(base, rows[i].hier())))
	}
	return tbl.Render(w)
}

// DefaultHier adapts the hierarchical defaults for the ablation.
func DefaultHier(c core.Constraints) core.HierarchicalConfig {
	cfg := core.DefaultHierarchicalConfig(c)
	return cfg
}

// runAblExplore targets the local optimum of Section VII-B2: plain
// SeeSAw stops giving the simulation power once the analysis's measured
// draw flattens; exploration probes test whether pushing further pays.
func runAblExplore(ctx context.Context, o Options, w io.Writer) error {
	steps := o.steps(defaultSteps)
	cons := constraintsFor(2*nodes128Half, defaultCap)
	names := []string{"rdf", "vacf"}
	mks := []func() core.Policy{
		func() core.Policy { return core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cons, Window: 1}) },
		func() core.Policy { return core.MustNewExploringSeeSAw(core.DefaultExploringConfig(cons)) },
		func() core.Policy { return core.MustNewTimeAware(core.DefaultTimeAwareConfig(cons)) },
	}
	mkLabels := []string{"seesaw", "explore", "time-aware"}

	type row struct {
		base     func() units.Seconds
		policies []func() units.Seconds
	}
	e := newEnum("abl-explore")
	var rows []row
	for _, name := range names {
		spec := spec128(defaultMidDim, 1, steps, workload.Tasks(name))
		noise := machine.DefaultNoise()
		rw := row{base: ablTimeCell(e, name+"/static", spec, mkStatic, cons, noise, o.BaseSeed+231)}
		for i, mk := range mks {
			rw.policies = append(rw.policies,
				ablTimeCell(e, name+"/"+mkLabels[i], spec, mk, cons, noise, o.BaseSeed+231))
		}
		rows = append(rows, rw)
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	tbl := trace.NewTable("Low-demand analyses at dim=36: escaping the local optimum",
		"analysis", "seesaw", "seesaw-explore", "time-aware (upper reference)")
	for i, name := range names {
		base := rows[i].base()
		out := []any{name}
		for _, g := range rows[i].policies {
			out = append(out, fmt.Sprintf("%+.2f%%", improvementPct(base, g())))
		}
		tbl.AddRow(out...)
	}
	return tbl.Render(w)
}

// runAblTransient reruns the Fig 4 comparison with the simulation's
// startup overhead disabled, isolating how much of the time-aware
// policy's MSD failure is the transient's doing.
func runAblTransient(ctx context.Context, o Options, w io.Writer) error {
	steps := o.steps(defaultSteps)
	cons := constraintsFor(2*nodes128Half, defaultCap)
	names := policy.Compared()
	variants := []bool{false, true}

	specFor := func(noTransient bool) workload.Spec {
		spec := spec128(defaultDim, 1, steps, workload.Tasks("msd"))
		spec.NoSetupTransient = noTransient
		return spec
	}
	e := newEnum("abl-transient")
	baseG := map[bool]func() units.Seconds{}
	for _, noTransient := range variants {
		key := fmt.Sprintf("transient%v/static", !noTransient)
		baseG[noTransient] = ablTimeCell(e, key, specFor(noTransient), mkStatic,
			cons, machine.DefaultNoise(), o.BaseSeed+241)
	}
	polG := map[string]map[bool]func() units.Seconds{}
	for _, name := range names {
		name := name
		polG[name] = map[bool]func() units.Seconds{}
		for _, noTransient := range variants {
			key := fmt.Sprintf("transient%v/%s", !noTransient, name)
			polG[name][noTransient] = ablTimeCell(e, key, specFor(noTransient), func() core.Policy {
				pol, err := policy.New(name, cons, 1)
				if err != nil {
					panic(err) // names are the fixed set above
				}
				return pol
			}, cons, machine.DefaultNoise(), o.BaseSeed+241)
		}
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	tbl := trace.NewTable("Improvement over static on LAMMPS+MSD, with and without the startup transient",
		"policy", "with transient", "without transient")
	for _, name := range names {
		row := []any{name}
		for _, noTransient := range variants {
			base := baseG[noTransient]()
			row = append(row, fmt.Sprintf("%+.2f%%", improvementPct(base, polG[name][noTransient]())))
		}
		tbl.AddRow(row...)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "the transient is what lures the time-aware balancer the wrong way (Section VII-B1)")
	return err
}

// runAblOracle compares each policy against the best static split found
// by exhaustive sweep — the headroom an online policy could at most
// capture on a stationary workload.
func runAblOracle(ctx context.Context, o Options, w io.Writer) error {
	steps := o.steps(defaultSteps)
	cons := constraintsFor(2*nodes128Half, defaultCap)
	cases := []analysisCase{
		{"msd (dim=16)", defaultDim, workload.Tasks("msd")},
		{"vacf (dim=36)", defaultMidDim, workload.Tasks("vacf")},
	}
	names := []string{"seesaw", "time-aware"}

	type row struct {
		oracle   func() *cosim.OracleResult
		base     func() units.Seconds
		policies []func() units.Seconds
	}
	e := newEnum("abl-oracle")
	var rows []row
	for _, cs := range cases {
		cs := cs
		spec := spec128(cs.dim, 1, steps, cs.analyses)
		noise := machine.DefaultNoise()
		rw := row{
			oracle: addCell(e, cs.label+"/oracle", o.BaseSeed+251,
				func(ctx context.Context) (*cosim.OracleResult, error) {
					return cosim.FindBestStaticSplit(ctx, cosim.Config{
						Spec: spec, Constraints: cons, CapMode: cosim.CapLong,
						Seed: o.BaseSeed + 251, RunSeed: o.BaseSeed + 252, Noise: noise,
					}, 2)
				}),
			base: ablTimeCell(e, cs.label+"/static", spec, mkStatic, cons, noise, o.BaseSeed+251),
		}
		for _, name := range names {
			name := name
			rw.policies = append(rw.policies, ablTimeCell(e, cs.label+"/"+name, spec, func() core.Policy {
				pol, err := policy.New(name, cons, 1)
				if err != nil {
					panic(err)
				}
				return pol
			}, cons, noise, o.BaseSeed+251))
		}
		rows = append(rows, rw)
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	tbl := trace.NewTable("Policies vs the best static split (oracle, 2 W sweep; 128 nodes)",
		"workload", "oracle split S/A (W)", "oracle gain", "seesaw", "time-aware")
	for i, cs := range cases {
		oracle := rows[i].oracle()
		base := rows[i].base()
		out := []any{cs.label,
			fmt.Sprintf("%.0f / %.0f", float64(oracle.BestSimCap), float64(oracle.BestAnaCap)),
			fmt.Sprintf("%+.2f%%", oracle.Headroom()*100)}
		for _, g := range rows[i].policies {
			out = append(out, fmt.Sprintf("%+.2f%%", improvementPct(base, g())))
		}
		tbl.AddRow(out...)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "the oracle is the best fixed allocation chosen with hindsight; online policies cannot be expected to exceed it")
	return err
}

// runExtSched evaluates the system-wide integration (Section VIII):
// several in-situ jobs share a machine budget; the energy-aware system
// level feeds the compute-hungry job at the light jobs' expense.
func runExtSched(ctx context.Context, o Options, w io.Writer) error {
	steps := o.steps(defaultSteps)
	mk := func(ctx context.Context, aware bool) (*sched.Result, error) {
		return sched.Run(ctx, sched.Config{
			Jobs: []sched.JobSpec{
				{Name: "md-large (dim=36)", PolicyName: "seesaw", Window: 1, Workload: workload.Spec{
					SimNodes: 32, AnaNodes: 32, Dim: 36, J: 1, Steps: steps,
					Analyses: workload.Tasks("vacf"),
				}},
				{Name: "md-small (dim=16)", PolicyName: "seesaw", Window: 1, Workload: workload.Spec{
					SimNodes: 32, AnaNodes: 32, Dim: 16, J: 1, Steps: steps,
					Analyses: workload.Tasks("msd1d"),
				}},
			},
			MachineBudget: 110 * 128,
			MinCap:        minCap, MaxCap: maxCap,
			Epochs:      8,
			SystemAware: aware,
			Seed:        o.BaseSeed + 261,
			Noise:       machine.DefaultNoise(),
		})
	}
	e := newEnum("ext-sched")
	getStatic := addCell(e, "node-proportional", o.BaseSeed+261,
		func(ctx context.Context) (*sched.Result, error) { return mk(ctx, false) })
	getAware := addCell(e, "energy-aware", o.BaseSeed+261,
		func(ctx context.Context) (*sched.Result, error) { return mk(ctx, true) })
	if err := e.run(ctx, o); err != nil {
		return err
	}
	static, aware := getStatic(), getAware()

	tbl := trace.NewTable("Two concurrent in-situ jobs sharing a 128-node machine budget",
		"job", "node-proportional (s)", "energy-aware system level (s)", "job improvement", "final budget (kW)")
	for i := range static.Jobs {
		s, a := static.Jobs[i], aware.Jobs[i]
		tbl.AddRow(s.Name,
			fmt.Sprintf("%.0f", float64(s.Time)),
			fmt.Sprintf("%.0f", float64(a.Time)),
			fmt.Sprintf("%+.2f%%", improvementPct(s.Time, a.Time)),
			fmt.Sprintf("%.2f", float64(a.Budget)/1000))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "machine makespan: %.0f s -> %.0f s (%+.2f%%)\n",
		float64(static.Makespan), float64(aware.Makespan),
		improvementPct(static.Makespan, aware.Makespan))
	return err
}

// runExtPowerShift contrasts SeeSAw's online feedback with the offline-
// profile approach of the paper's closest related work (PowerShift,
// Zhang & Hoffmann ICPP'18): profiles collected on the matching workload
// perform well; profiles from a different analysis mislead the allocator
// — SeeSAw needs no profiles at all. Two campaigns run in sequence: the
// profiling passes (whose outputs parameterize the PowerShift policies),
// then the production runs.
func runExtPowerShift(ctx context.Context, o Options, w io.Writer) error {
	steps := o.steps(defaultSteps)
	cons := constraintsFor(2*nodes128Half, defaultCap)
	noise := machine.DefaultNoise()
	profCaps := []units.Watts{98, 104, 110, 116, 122}

	// Offline profiling pass: partition interval times at each cap,
	// measured with short static runs of the given workload.
	type profiles struct {
		sim, ana core.Profile
	}
	profileFor := func(ctx context.Context, tasks []workload.AnalysisTask, dim int) (profiles, error) {
		var simErr error
		sim := core.ProfilePartition(profCaps, func(cap units.Watts) units.Seconds {
			spec := spec128(dim, 1, steps/4, tasks)
			res, err := cosim.Run(ctx, cosim.Config{
				Spec: spec, Constraints: cons, CapMode: cosim.CapLong,
				InitialSimCap: cap, InitialAnaCap: units.ClampWatts(220-cap, minCap, maxCap),
				Seed: o.BaseSeed + 271, RunSeed: o.BaseSeed + 272, Noise: noise,
				Telemetry: o.Telemetry,
			})
			if err != nil {
				simErr = err
				return 1
			}
			var t float64
			for _, r := range res.SyncLog.Records {
				t += float64(r.SimTime)
			}
			return units.Seconds(t / float64(len(res.SyncLog.Records)))
		})
		var anaErr error
		ana := core.ProfilePartition(profCaps, func(cap units.Watts) units.Seconds {
			spec := spec128(dim, 1, steps/4, tasks)
			res, err := cosim.Run(ctx, cosim.Config{
				Spec: spec, Constraints: cons, CapMode: cosim.CapLong,
				InitialSimCap: units.ClampWatts(220-cap, minCap, maxCap), InitialAnaCap: cap,
				Seed: o.BaseSeed + 271, RunSeed: o.BaseSeed + 272, Noise: noise,
				Telemetry: o.Telemetry,
			})
			if err != nil {
				anaErr = err
				return 1
			}
			var t float64
			for _, r := range res.SyncLog.Records {
				t += float64(r.AnaTime)
			}
			return units.Seconds(t / float64(len(res.SyncLog.Records)))
		})
		if simErr != nil {
			return profiles{}, simErr
		}
		return profiles{sim: sim, ana: ana}, anaErr
	}

	target := workload.Tasks("msd") // the production workload
	prof := newEnum("ext-powershift")
	getMatched := addCell(prof, "profile/matched", o.BaseSeed+271,
		func(ctx context.Context) (profiles, error) { return profileFor(ctx, target, defaultDim) })
	getStale := addCell(prof, "profile/stale", o.BaseSeed+271,
		func(ctx context.Context) (profiles, error) {
			// Profiled on a different workload.
			return profileFor(ctx, workload.Tasks("vacf"), defaultMidDim)
		})
	if err := prof.run(ctx, o); err != nil {
		return err
	}
	matched, stale := getMatched(), getStale()

	// Production campaign: the policies consume the captured profiles.
	spec := spec128(defaultDim, 1, steps, target)
	e := newEnum("ext-powershift")
	getBase := ablTimeCell(e, "static", spec, mkStatic, cons, noise, o.BaseSeed+273)
	getPSMatched := ablTimeCell(e, "powershift-matched", spec, func() core.Policy {
		return core.MustNewPowerShift(core.PowerShiftConfig{
			Constraints: cons, SimProfile: matched.sim, AnaProfile: matched.ana, GridStep: 1})
	}, cons, noise, o.BaseSeed+273)
	getPSStale := ablTimeCell(e, "powershift-stale", spec, func() core.Policy {
		return core.MustNewPowerShift(core.PowerShiftConfig{
			Constraints: cons, SimProfile: stale.sim, AnaProfile: stale.ana, GridStep: 1})
	}, cons, noise, o.BaseSeed+273)
	getSeeSAw := ablTimeCell(e, "seesaw", spec, func() core.Policy {
		return core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cons, Window: 1})
	}, cons, noise, o.BaseSeed+273)
	if err := e.run(ctx, o); err != nil {
		return err
	}

	base := getBase()
	tbl := trace.NewTable("Offline profiles vs online feedback on LAMMPS+MSD (128 nodes)",
		"policy", "improvement over static")
	tbl.AddRow("powershift (matching profiles)", fmt.Sprintf("%+.2f%%", improvementPct(base, getPSMatched())))
	tbl.AddRow("powershift (profiles from a different workload)", fmt.Sprintf("%+.2f%%", improvementPct(base, getPSStale())))
	tbl.AddRow("seesaw (no profiles)", fmt.Sprintf("%+.2f%%", improvementPct(base, getSeeSAw())))
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "profiling cost (not charged above): 2 partitions x 5 caps x a quarter-length run each")
	return err
}
