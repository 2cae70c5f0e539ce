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

// runAblEWMA compares damped vs undamped SeeSAw at increasing
// power-measurement noise: without the EWMA the allocator chases ripple.
func runAblEWMA(ctx context.Context, o Options, w io.Writer) error {
	steps := o.steps(defaultSteps)
	// A small job: with only 4 nodes per partition the partition-level
	// power average barely filters per-node ripple, so the EWMA is the
	// only guard (at 64+ nodes the averaging itself hides this effect).
	spec := specAt(8, defaultDim, 1, steps, workload.Tasks("msd"))
	sigmas := []float64{0.0, 0.035, 0.10}
	noEWMA := func(cons core.Constraints, window int) (core.Policy, error) {
		return core.NewSeeSAw(core.SeeSAwConfig{Constraints: cons, Window: window, NoEWMA: true})
	}

	e := newEnum("abl-ewma")
	var with, without []func() (float64, float64)
	for _, sigma := range sigmas {
		c := cell{spec: spec, policy: "seesaw", noise: machine.DefaultNoise(), telemetry: o.Telemetry}
		c.noise.PowerSigma = sigma
		prefix := fmt.Sprintf("sigma%.3f", sigma)
		with = append(with, e.paired(prefix+"/ewma", c, 1, o.BaseSeed+201))
		c.factory = noEWMA
		without = append(without, e.paired(prefix+"/no-ewma", c, 1, o.BaseSeed+201))
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	tbl := trace.NewTable("SeeSAw improvement over static, with and without EWMA damping (4+4 nodes)",
		"power ripple sigma", "with EWMA", "without EWMA")
	for i, sigma := range sigmas {
		tbl.AddRow(fmt.Sprintf("%.3f", sigma), impPct(with[i]), impPct(without[i]))
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
	noise := machine.DefaultNoise()
	noise.PowerSigma = 0.10
	noise.JitterSigma = 0.02
	windows := []int{1, 2, 4, 8, 16}
	runs := o.runs(defaultRuns)

	// Every window pairs with the same static job, so each repeat's
	// baseline runs once for all five windows.
	e := newEnum("abl-window")
	var getters []func() (float64, float64)
	for _, win := range windows {
		getters = append(getters, e.paired(fmt.Sprintf("w%d", win), cell{
			spec: spec, policy: "seesaw", window: win, noise: noise, telemetry: o.Telemetry,
		}, runs, o.BaseSeed+211))
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	tbl := trace.NewTable("SeeSAw improvement over static under heavy measurement noise (4+4 nodes)",
		"w", "improvement")
	for i, win := range windows {
		tbl.AddRow(win, impPct(getters[i]))
	}
	return tbl.Render(w)
}

// runAblHier evaluates the hierarchical extension under strong node
// heterogeneity: uniform partition caps leave the slowest node gating
// the partition; per-node offsets claw some of that back.
func runAblHier(ctx context.Context, o Options, w io.Writer) error {
	steps := o.steps(defaultSteps)
	spec := spec128(defaultMidDim, 1, steps, workload.Tasks("vacf"))
	skews := []float64{0.004, 0.012, 0.025}
	hierarchical := func(cons core.Constraints, _ int) (core.Policy, error) {
		return core.NewHierarchical(core.DefaultHierarchicalConfig(cons))
	}

	e := newEnum("abl-hier")
	var plain, hier []func() (float64, float64)
	for _, skew := range skews {
		c := cell{spec: spec, policy: "seesaw", noise: machine.DefaultNoise(), telemetry: o.Telemetry}
		c.noise.SkewSigma = skew
		c.noise.PowerEffSigma = skew
		prefix := fmt.Sprintf("skew%.3f", skew)
		plain = append(plain, e.paired(prefix+"/plain", c, 1, o.BaseSeed+221))
		c.factory = hierarchical
		hier = append(hier, e.paired(prefix+"/hier", c, 1, o.BaseSeed+221))
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	tbl := trace.NewTable("Runtime vs static under increasing node heterogeneity (128 nodes, VACF)",
		"node skew sigma", "seesaw", "seesaw-hierarchical")
	for i, skew := range skews {
		tbl.AddRow(fmt.Sprintf("%.3f", skew), impPct(plain[i]), impPct(hier[i]))
	}
	return tbl.Render(w)
}

// runAblExplore targets the local optimum of Section VII-B2: plain
// SeeSAw stops giving the simulation power once the analysis's measured
// draw flattens; exploration probes test whether pushing further pays.
func runAblExplore(ctx context.Context, o Options, w io.Writer) error {
	steps := o.steps(defaultSteps)
	names := []string{"rdf", "vacf"}
	variants := []struct {
		label string
		c     cell
	}{
		{"seesaw", cell{policy: "seesaw"}},
		{"explore", cell{factory: func(cons core.Constraints, _ int) (core.Policy, error) {
			return core.NewExploringSeeSAw(core.DefaultExploringConfig(cons))
		}}},
		{"time-aware", cell{policy: "time-aware"}},
	}

	e := newEnum("abl-explore")
	var rows [][]func() (float64, float64) // [analysis][variant]
	for _, name := range names {
		var row []func() (float64, float64)
		for _, v := range variants {
			c := v.c
			c.spec = spec128(defaultMidDim, 1, steps, workload.Tasks(name))
			c.telemetry = o.Telemetry
			row = append(row, e.paired(name+"/"+v.label, c, 1, o.BaseSeed+231))
		}
		rows = append(rows, row)
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	tbl := trace.NewTable("Low-demand analyses at dim=36: escaping the local optimum",
		"analysis", "seesaw", "seesaw-explore", "time-aware (upper reference)")
	for i, name := range names {
		out := []any{name}
		for _, g := range rows[i] {
			out = append(out, impPct(g))
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
	names := policy.Compared()
	variants := []bool{false, true}

	e := newEnum("abl-transient")
	getters := map[string]map[bool]func() (float64, float64){}
	for _, name := range names {
		getters[name] = map[bool]func() (float64, float64){}
		for _, noTransient := range variants {
			spec := spec128(defaultDim, 1, steps, workload.Tasks("msd"))
			spec.NoSetupTransient = noTransient
			key := fmt.Sprintf("transient%v/%s", !noTransient, name)
			getters[name][noTransient] = e.paired(key, cell{spec: spec, policy: name, telemetry: o.Telemetry},
				1, o.BaseSeed+241)
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
			row = append(row, impPct(getters[name][noTransient]))
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
		policies []func() (float64, float64)
	}
	e := newEnum("abl-oracle")
	var rows []row
	for _, cs := range cases {
		spec := spec128(cs.dim, 1, steps, cs.analyses)
		rw := row{
			oracle: addCell(e, cs.label+"/oracle", o.BaseSeed+251,
				func(ctx context.Context) (*cosim.OracleResult, error) {
					return cosim.FindBestStaticSplit(ctx, cosim.Config{
						Spec: spec, Constraints: cons, CapMode: cosim.CapLong,
						Seed: o.BaseSeed + 251, RunSeed: o.BaseSeed + 252, Noise: machine.DefaultNoise(),
					}, 2)
				}),
		}
		for _, name := range names {
			rw.policies = append(rw.policies, e.paired(cs.label+"/"+name,
				cell{spec: spec, policy: name, telemetry: o.Telemetry}, 1, o.BaseSeed+251))
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
		out := []any{cs.label,
			fmt.Sprintf("%.0f / %.0f", float64(oracle.BestSimCap), float64(oracle.BestAnaCap)),
			fmt.Sprintf("%+.2f%%", oracle.Headroom()*100)}
		for _, g := range rows[i].policies {
			out = append(out, impPct(g))
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
	profCaps := []units.Watts{98, 104, 110, 116, 122}

	// Offline profiling pass: partition interval times at each cap,
	// measured with short static runs of the given workload.
	type profiles struct {
		sim, ana core.Profile
	}
	profileFor := func(ctx context.Context, tasks []workload.AnalysisTask, dim int) (profiles, error) {
		var err error
		// measure returns one partition's mean interval time with that
		// partition at cap and the other at the budget's remainder.
		measure := func(role core.Role) func(units.Watts) units.Seconds {
			return func(cap units.Watts) units.Seconds {
				rest := units.ClampWatts(220-cap, minCap, maxCap)
				c := cell{spec: spec128(dim, 1, steps/4, tasks), policy: "static",
					simStart: cap, anaStart: rest,
					jobSeed: o.BaseSeed + 271, runSeed: o.BaseSeed + 272, telemetry: o.Telemetry}
				if role == core.RoleAnalysis {
					c.simStart, c.anaStart = rest, cap
				}
				res, rerr := runCell(ctx, c)
				if rerr != nil {
					if err == nil {
						err = rerr
					}
					return 1
				}
				var t float64
				for _, r := range res.SyncLog.Records {
					if role == core.RoleSimulation {
						t += float64(r.SimTime)
					} else {
						t += float64(r.AnaTime)
					}
				}
				return units.Seconds(t / float64(len(res.SyncLog.Records)))
			}
		}
		sim := core.ProfilePartition(profCaps, measure(core.RoleSimulation))
		ana := core.ProfilePartition(profCaps, measure(core.RoleAnalysis))
		return profiles{sim: sim, ana: ana}, err
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

	// Production campaign: the PowerShift policies consume the captured
	// profiles.
	powerShift := func(p profiles) policy.Factory {
		return func(cons core.Constraints, _ int) (core.Policy, error) {
			return core.NewPowerShift(core.PowerShiftConfig{
				Constraints: cons, SimProfile: p.sim, AnaProfile: p.ana, GridStep: 1})
		}
	}
	spec := spec128(defaultDim, 1, steps, target)
	rows := []struct {
		key, label string
		c          cell
	}{
		{"powershift-matched", "powershift (matching profiles)", cell{factory: powerShift(getMatched())}},
		{"powershift-stale", "powershift (profiles from a different workload)", cell{factory: powerShift(getStale())}},
		{"seesaw", "seesaw (no profiles)", cell{policy: "seesaw"}},
	}
	e := newEnum("ext-powershift")
	getters := make([]func() (float64, float64), len(rows))
	for i, r := range rows {
		r.c.spec, r.c.telemetry = spec, o.Telemetry
		getters[i] = e.paired(r.key, r.c, 1, o.BaseSeed+273)
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	tbl := trace.NewTable("Offline profiles vs online feedback on LAMMPS+MSD (128 nodes)",
		"policy", "improvement over static")
	for i, r := range rows {
		tbl.AddRow(r.label, impPct(getters[i]))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "profiling cost (not charged above): 2 partitions x 5 caps x a quarter-length run each")
	return err
}
