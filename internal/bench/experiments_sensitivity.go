// Sensitivity and overhead experiments: Figure 6, Table II, Figures 7,
// 8 and 9.
package bench

import (
	"context"
	"fmt"
	"io"

	"seesaw/internal/cosim"
	"seesaw/internal/machine"
	"seesaw/internal/stats"
	"seesaw/internal/trace"
	"seesaw/internal/units"
	"seesaw/internal/workload"
)

// runFig6 sweeps the power-reallocation window w and the synchronization
// rate j at 1024 nodes.
func runFig6(ctx context.Context, o Options, w io.Writer) error {
	runs := o.runs(1)
	steps := o.steps(defaultSteps)
	windows := []int{1, 2, 5, 10, 20}
	js := []int{1, 5, 10}

	// The paper's "mix of analyses" at dim=48 excludes full MSD (its
	// memory limits it to dim=16, Section VII-B).
	analyses := workload.Tasks("rdf", "msd1d", "msd2d", "vacf")

	e := newEnum("fig6")
	var getters [][]func() (float64, float64) // [window][j]
	for _, win := range windows {
		var row []func() (float64, float64)
		for _, j := range js {
			row = append(row, e.paired(fmt.Sprintf("w%d/j%d", win, j), cell{
				spec:   specAt(2*nodes1024Half, defaultBigDim, j, steps, analyses),
				policy: "seesaw", window: win, telemetry: o.Telemetry,
			}, runs, o.BaseSeed+61))
		}
		getters = append(getters, row)
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	headers := []string{"w \\ j"}
	for _, j := range js {
		headers = append(headers, fmt.Sprintf("j=%d", j))
	}
	tbl := trace.NewTable("Fig 6: SeeSAw % improvement over static baseline", headers...)
	for i, win := range windows {
		row := []any{fmt.Sprintf("w=%d", win)}
		for _, g := range getters[i] {
			row = append(row, impPct(g))
		}
		tbl.AddRow(row...)
	}
	return tbl.Render(w)
}

// runTable2 varies the interval of one analysis while the others
// synchronize at every step.
func runTable2(ctx context.Context, o Options, w io.Writer) error {
	runs := o.runs(defaultRuns)
	steps := o.steps(defaultSteps)
	intervals := []int{4, 20, 100}
	varieds := []string{"msd", "vacf"}

	e := newEnum("table2")
	var getters [][]func() (float64, float64) // [varied][interval]
	for _, varied := range varieds {
		var row []func() (float64, float64)
		for _, j := range intervals {
			tasks := []workload.AnalysisTask{
				{Name: "rdf", Interval: 1},
				{Name: "msd", Interval: 1},
				{Name: "vacf", Interval: 1},
			}
			for i := range tasks {
				if tasks[i].Name == varied {
					tasks[i].Interval = j
				}
			}
			row = append(row, e.paired(fmt.Sprintf("%s/j%d", varied, j), cell{
				spec:   spec128(defaultDim, 1, steps, tasks),
				policy: "seesaw", window: 1, telemetry: o.Telemetry,
			}, runs, o.BaseSeed+71))
		}
		getters = append(getters, row)
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	tbl := trace.NewTable("Table II: SeeSAw % improvement over static with mixed analysis intervals",
		"varied analysis", "j=4", "j=20", "j=100")
	for i, varied := range varieds {
		row := []any{varied}
		for _, g := range getters[i] {
			row = append(row, impPct(g))
		}
		tbl.AddRow(row...)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "paper: MSD-varied 5.03 / 0.94 / 0.90 %; VACF-varied 16.76 / 15.09 / 16.24 %")
	return err
}

// runFig7 starts simulation and analysis at different initial caps and
// measures SeeSAw's improvement over keeping that distribution static.
func runFig7(ctx context.Context, o Options, w io.Writer) error {
	runs := o.runs(defaultRuns)
	steps := o.steps(defaultSteps)
	spec := spec128(defaultMidDim, 1, steps, workload.AllAnalysesForDim(defaultMidDim))

	starts := []struct {
		label    string
		sim, ana units.Watts
	}{
		{"simulation starts with more (S=120, A=100)", 120, 100},
		{"analysis starts with more (S=100, A=120)", 100, 120},
		{"equal start (S=110, A=110)", 110, 110},
	}
	e := newEnum("fig7")
	var getters []func() (float64, float64)
	for _, st := range starts {
		getters = append(getters, e.paired(fmt.Sprintf("S%.0f-A%.0f", float64(st.sim), float64(st.ana)), cell{
			spec:   spec,
			policy: "seesaw", window: 2,
			simStart: st.sim, anaStart: st.ana,
			telemetry: o.Telemetry,
		}, runs, o.BaseSeed+81))
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	tbl := trace.NewTable("Fig 7: SeeSAw % improvement over the static initial distribution (w=2)",
		"initial distribution", "improvement", "paper")
	paperVals := []string{"28.26%", "19.21%", "8.94%"}
	for i, st := range starts {
		tbl.AddRow(st.label, impPct(getters[i]), paperVals[i])
	}
	return tbl.Render(w)
}

// runFig8 sweeps the per-node power budget: SeeSAw helps most at tight
// caps; beyond ~140 W per node LAMMPS cannot use more power and the
// improvement evaporates.
func runFig8(ctx context.Context, o Options, w io.Writer) error {
	runs := o.runs(defaultRuns)
	steps := o.steps(defaultSteps)
	spec := spec128(defaultDim, 1, steps, workload.AllAnalyses())
	caps := []units.Watts{98, 105, 110, 115, 120, 130, 140, 150, 160}

	e := newEnum("fig8")
	var getters []func() (float64, float64)
	for _, c := range caps {
		getters = append(getters, e.paired(fmt.Sprintf("cap%.0f", float64(c)), cell{
			spec:       spec,
			policy:     "seesaw",
			window:     1,
			capPerNode: c,
			telemetry:  o.Telemetry,
		}, runs, o.BaseSeed+91))
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	tbl := trace.NewTable("Fig 8: SeeSAw % improvement over static across per-node power caps",
		"cap per node (W)", "improvement")
	for i, c := range caps {
		tbl.AddRow(c, impPct(getters[i]))
	}
	return tbl.Render(w)
}

// runFig9a reports the allocator overhead relative to the
// synchronization interval at 128 and 1024 nodes.
func runFig9a(ctx context.Context, o Options, w io.Writer) error {
	steps := o.steps(defaultSteps)
	scales := []int{2 * nodes128Half, 2 * nodes1024Half}

	e := newEnum("fig9a")
	var getters []func() *cosim.Result
	for _, n := range scales {
		getters = append(getters, e.result(fmt.Sprintf("n%d", n), cell{
			spec:   specAt(n, defaultBigDim, 1, steps, workload.AllAnalysesForDim(defaultBigDim)),
			policy: "seesaw", jobSeed: o.BaseSeed + 95, runSeed: o.BaseSeed + 96,
			telemetry: o.Telemetry,
		}))
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	tbl := trace.NewTable("Fig 9a: SeeSAw overhead per synchronization (dim=48, all analyses, w=1, j=1)",
		"nodes", "overhead per sync", "mean interval (s)", "overhead %")
	for i, n := range scales {
		res := getters[i]()
		meanInterval := float64(res.TotalTime) / float64(len(res.SyncLog.Records))
		ovh := float64(res.OverheadPerSync)
		tbl.AddRow(n, fmt.Sprintf("%.1f us", ovh*1e6), meanInterval,
			fmt.Sprintf("%.5f%%", ovh/meanInterval*100))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "communication costs dominate at 1024 nodes: higher absolute overhead, smaller relative overhead")
	return err
}

// runFig9b measures the standalone duration of one SeeSAw allocation on
// a node running at different power caps (the allocator itself slows
// down on a throttled CPU), averaged over a loop of 10 iterations. Each
// cap is one cell; the node is constructed inside the cell, so cells
// share no state.
func runFig9b(ctx context.Context, o Options, w io.Writer) error {
	caps := []units.Watts{98, 110, 120, 140, 215}
	// The allocator's local compute: a short scalar phase on the
	// monitoring rank's CPU.
	allocPhase := machine.Phase{
		Name:        "seesaw-alloc",
		Nominal:     50e-6, // 50 us of local math and bookkeeping
		Demand:      120,
		Saturation:  130,
		Sensitivity: 0.8,
	}
	e := newEnum("fig9b")
	var getters []func() float64
	for _, c := range caps {
		c := c
		getters = append(getters, addCell(e, fmt.Sprintf("cap%.0f", float64(c)), o.BaseSeed+98,
			func(ctx context.Context) (float64, error) {
				node := machine.DefaultNode(0, machine.DefaultNoise(), o.BaseSeed+98)
				node.RAPL().SetLongCap(c)
				// Warm the domain past the actuation latency.
				node.Idle(0.02)
				var durs []float64
				for i := 0; i < 10; i++ {
					exec := node.Run(allocPhase, machine.DefaultNoise())
					durs = append(durs, float64(exec.Duration)*1e6)
				}
				return stats.Mean(durs), nil
			}))
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	tbl := trace.NewTable("Fig 9b: average standalone SeeSAw duration over 10 iterations",
		"cap per node (W)", "avg duration (us)")
	for i, c := range caps {
		tbl.AddRow(c, fmt.Sprintf("%.1f", getters[i]()))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "RAPL additionally needs ~10 ms to actuate a new cap request (modeled as actuation latency, not allocator time)")
	return err
}
