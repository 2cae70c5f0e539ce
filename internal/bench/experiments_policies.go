// Experiments comparing the power-management policies: Figures 3, 4 and
// 5 of the paper.
package bench

import (
	"context"
	"fmt"
	"io"

	"seesaw/internal/cosim"
	"seesaw/internal/policy"
	"seesaw/internal/trace"
	"seesaw/internal/workload"
)

// fig3aCases are the analysis configurations of Figure 3a. Full MSD is
// limited to dim=16 by its memory needs; its subcomponents use dim=16
// for comparability (Section VII-B); the light analyses use dim=36.
type analysisCase struct {
	label    string
	dim      int
	analyses []workload.AnalysisTask
}

func fig3aCases() []analysisCase {
	return []analysisCase{
		{"rdf", defaultMidDim, workload.Tasks("rdf")},
		{"vacf", defaultMidDim, workload.Tasks("vacf")},
		{"msd1d", defaultDim, workload.Tasks("msd1d")},
		{"msd2d", defaultDim, workload.Tasks("msd2d")},
		{"msd (full)", defaultDim, workload.Tasks("msd")},
		{"all", defaultDim, workload.AllAnalyses()},
	}
}

func runFig3a(ctx context.Context, o Options, w io.Writer) error {
	runs := o.runs(defaultRuns)
	steps := o.steps(defaultSteps)

	e := newEnum("fig3a")
	var getters [][]func() (float64, float64) // [case][policy]
	for _, cs := range fig3aCases() {
		var row []func() (float64, float64)
		for _, p := range policy.Compared() {
			row = append(row, e.paired(fmt.Sprintf("%s/%s", cs.label, p), cell{
				spec:   spec128(cs.dim, 1, steps, cs.analyses),
				policy: p, window: 1, telemetry: o.Telemetry,
			}, runs, o.BaseSeed+31))
		}
		getters = append(getters, row)
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	tbl := trace.NewTable("Fig 3a: % runtime improvement over static baseline (negative = slowdown)",
		append([]string{"analysis (dim)"}, policy.Compared()...)...)
	for i, cs := range fig3aCases() {
		row := []any{fmt.Sprintf("%s (dim=%d)", cs.label, cs.dim)}
		for _, g := range getters[i] {
			row = append(row, impPct(g))
		}
		tbl.AddRow(row...)
	}
	return tbl.Render(w)
}

func runFig3b(ctx context.Context, o Options, w io.Writer) error {
	runs := o.runs(defaultRuns)
	steps := o.steps(defaultSteps)

	cases := []analysisCase{
		{"msd (full)", defaultDim, workload.Tasks("msd")},
		{"all", defaultDim, workload.AllAnalyses()},
		{"vacf", defaultBigDim, workload.Tasks("vacf")},
	}
	scales := []int{256, 512, 1024}

	e := newEnum("fig3b")
	var getters [][]func() (float64, float64) // [case*scale][policy]
	for _, cs := range cases {
		for _, n := range scales {
			var row []func() (float64, float64)
			for _, p := range policy.Compared() {
				row = append(row, e.paired(fmt.Sprintf("%s/n%d/%s", cs.label, n, p), cell{
					spec:   specAt(n, cs.dim, 1, steps, cs.analyses),
					policy: p, window: 1, telemetry: o.Telemetry,
				}, runs, o.BaseSeed+37))
			}
			getters = append(getters, row)
		}
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	tbl := trace.NewTable("Fig 3b: % runtime improvement over static baseline at scale",
		append([]string{"workload", "nodes"}, policy.Compared()...)...)
	i := 0
	for _, cs := range cases {
		for _, n := range scales {
			row := []any{fmt.Sprintf("%s (dim=%d)", cs.label, cs.dim), n}
			for _, g := range getters[i] {
				row = append(row, impPct(g))
			}
			tbl.AddRow(row...)
			i++
		}
	}
	return tbl.Render(w)
}

// runFig4 shows the per-synchronization dynamics of the three policies
// on LAMMPS+MSD at 128 nodes, plus the baseline's first-10-sync profile
// (sub-figures d and e).
func runFig4(ctx context.Context, o Options, w io.Writer) error {
	steps := o.steps(defaultSteps)
	spec := spec128(defaultDim, 1, steps, workload.Tasks("msd"))

	policies := policy.Compared()
	e := newEnum("fig4")
	resCell := func(p string) func() *cosim.Result {
		return e.result(p, cell{spec: spec, policy: p,
			jobSeed: o.BaseSeed + 41, runSeed: o.BaseSeed + 42, telemetry: o.Telemetry})
	}
	var getters []func() *cosim.Result
	for _, p := range policies {
		getters = append(getters, resCell(p))
	}
	getBase := resCell("static")
	if err := e.run(ctx, o); err != nil {
		return err
	}

	for i, p := range policies {
		res := getters[i]()
		tbl := trace.NewTable(
			fmt.Sprintf("Fig 4 (%s): power allocated per node at each synchronization", p),
			"step", "sim cap (W)", "ana cap (W)", "sim measured (W)", "ana measured (W)", "slack")
		for i, r := range res.SyncLog.Records {
			if i >= 30 && i%25 != 0 {
				continue // elide the steady state
			}
			tbl.AddRow(r.Step, r.SimCap, r.AnaCap, r.SimPower, r.AnaPower, fmt.Sprintf("%.3f", r.Slack()))
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s: mean slack from step %d = %.1f%% (paper: seesaw ~0.8%%, time-aware ~12%%, power-aware fluctuating 0.2-40%%)\n\n",
			p, slackFromStep, res.SyncLog.MeanSlackFrom(slackFromStep)*100); err != nil {
			return err
		}
	}

	// Sub-figures d/e: baseline time and power of the first 10
	// synchronizations without power management.
	base := getBase()
	tbl := trace.NewTable("Fig 4d/e: baseline time and power between the first 10 synchronizations (110 W per node)",
		"step", "sim time (s)", "ana time (s)", "sim power (W)", "ana power (W)")
	for i, r := range base.SyncLog.Records {
		if i >= 10 {
			break
		}
		tbl.AddRow(r.Step, r.SimTime, r.AnaTime, r.SimPower, r.AnaPower)
	}
	return tbl.Render(w)
}

// runFig5 contrasts allocated and measured power at 1024 nodes for
// SeeSAw and the time-aware approach with all analyses.
func runFig5(ctx context.Context, o Options, w io.Writer) error {
	steps := o.steps(defaultSteps)
	spec := specAt(2*nodes1024Half, defaultDim, 1, steps, workload.AllAnalyses())

	policies := []string{"seesaw", "time-aware"}
	e := newEnum("fig5")
	var getters []func() *cosim.Result
	for _, p := range policies {
		getters = append(getters, e.result(p, cell{spec: spec, policy: p,
			jobSeed: o.BaseSeed + 51, runSeed: o.BaseSeed + 52, telemetry: o.Telemetry}))
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	for i, p := range policies {
		res := getters[i]()
		tbl := trace.NewTable(
			fmt.Sprintf("Fig 5 (%s): allocated vs measured power per node at 1024 nodes", p),
			"step", "sim alloc (W)", "sim measured (W)", "ana alloc (W)", "ana measured (W)", "slack")
		for i, r := range res.SyncLog.Records {
			if i%10 != 0 {
				continue
			}
			tbl.AddRow(r.Step, r.SimCap, r.SimPower, r.AnaCap, r.AnaPower, fmt.Sprintf("%.3f", r.Slack()))
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s: total %.1f s, mean slack %.1f%%\n\n",
			p, float64(res.TotalTime), res.SyncLog.MeanSlackFrom(slackFromStep)*100); err != nil {
			return err
		}
	}
	return nil
}
