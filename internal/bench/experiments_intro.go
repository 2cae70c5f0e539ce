// Experiments for the paper's motivating artifacts: the Figure 1 power
// trace, the Figure 2 two-task illustration, and the Table I variability
// study.
package bench

import (
	"context"
	"fmt"
	"io"

	"seesaw/internal/core"
	"seesaw/internal/cosim"
	"seesaw/internal/stats"
	"seesaw/internal/trace"
	"seesaw/internal/units"
	"seesaw/internal/workload"
)

// runFig1 reproduces the Figure 1 trace: an uncapped LAMMPS+RDF job where
// the analysis idles at ~105 W waiting to synchronize with the
// simulation each step.
func runFig1(ctx context.Context, o Options, w io.Writer) error {
	e := newEnum("fig1")
	getRes := e.result("trace", cell{
		spec:     spec128(defaultDim, 1, o.steps(40), workload.Tasks("rdf")),
		policy:   "static",
		uncapped: true, traceSegments: true,
		jobSeed: o.BaseSeed + 1, telemetry: o.Telemetry,
	})
	if err := e.run(ctx, o); err != nil {
		return err
	}
	res := getRes()
	const period = 0.2 // the paper samples power every 200 ms
	sim := cosim.SampleSegments(res.SimSegments, period)
	ana := cosim.SampleSegments(res.AnaSegments, period)

	tbl := trace.NewTable("Power trace (one sample per 2 s shown; full trace sampled at 200 ms)",
		"t (s)", "sim node (W)", "analysis node (W)")
	for i := 0; i < len(sim) && i < len(ana); i += 10 {
		tbl.AddRow(fmt.Sprintf("%.1f", float64(sim[i].Time)), sim[i].Value, ana[i].Value)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}

	// Summary statistics: the trough behaviour the figure demonstrates.
	simMean := stats.Mean(sampleValues(sim))
	anaMean := stats.Mean(sampleValues(ana))
	anaIdle := idleFraction(ana, 106)
	sum := trace.NewTable("Summary", "metric", "value")
	sum.AddRow("sim node mean power (W)", simMean)
	sum.AddRow("analysis node mean power (W)", anaMean)
	sum.AddRow("analysis samples at/below idle plateau (~105 W)", fmt.Sprintf("%.0f%%", anaIdle*100))
	sum.AddRow("samples", len(ana))
	return sum.Render(w)
}

func sampleValues(ss []trace.Sample) []float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = s.Value
	}
	return vs
}

// idleFraction reports the fraction of samples at or below the idle
// plateau threshold.
func idleFraction(ss []trace.Sample, threshold float64) float64 {
	if len(ss) == 0 {
		return 0
	}
	n := 0
	for _, s := range ss {
		if s.Value <= threshold {
			n++
		}
	}
	return float64(n) / float64(len(ss))
}

// runFig2 computes the paper's illustration: blue task 90 W/100 s, red
// task 120 W/60 s under a 210 W budget; the energy-proportional split
// equalizes both at ~77 s. Pure arithmetic: no cells to enumerate.
func runFig2(ctx context.Context, o Options, w io.Writer) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	const (
		budget = units.Watts(210)
		blueP  = units.Watts(90)
		blueT  = units.Seconds(100)
		redP   = units.Watts(120)
		redT   = units.Seconds(60)
	)
	optBlue, optRed := core.OptimalSplit(budget, blueT, blueP, redT, redP)
	tstar := core.PredictEqualTime(budget, blueT, blueP, redT, redP)

	tbl := trace.NewTable("Fig 2: SeeSAw split for the two-task illustration (C = 210 W)",
		"task", "initial power (W)", "initial time (s)", "optimal power (W)", "predicted time (s)")
	tbl.AddRow("blue (slow)", blueP, blueT, optBlue, tstar)
	tbl.AddRow("red (fast)", redP, redT, optRed, tstar)
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "iteration time %.1f s -> %.1f s (paper: ~77 s)\n",
		float64(blueT), float64(tstar))
	return err
}

// runTable1 measures run-to-run and job-to-job variability under the
// three cap types of Table I. Every (cap type, dim, kind, repeat) is one
// independent cell returning that run's total time.
func runTable1(ctx context.Context, o Options, w io.Writer) error {
	runs := o.runs(table1Runs)
	steps := o.steps(defaultSteps)

	type capType struct {
		label string
		mode  cosim.CapMode
	}
	capTypes := []capType{
		{"None", cosim.CapNone},
		{"Long (110 W)", cosim.CapLong},
		{"Long and Short (110 W each)", cosim.CapLongShort},
	}
	dims := []int{defaultMidDim, defaultBigDim}

	// Enumerate the full matrix, keeping getters grouped per table row.
	type rowSpec struct {
		label   string
		dim     int
		kind    string
		getters []func() units.Seconds
	}
	e := newEnum("table1")
	var rows []rowSpec
	for _, ct := range capTypes {
		for _, dim := range dims {
			// Each row's jobs run static: the table measures the cap
			// type's variability, not a policy.
			c := cell{
				spec:    spec128(dim, 1, steps, workload.AllAnalysesForDim(dim)),
				capMode: ct.mode, uncapped: ct.mode == cosim.CapNone,
				jobSeed: o.BaseSeed + 11, telemetry: o.Telemetry,
			}

			// Run-to-run: same job (same node skews), varying jitter.
			rr := rowSpec{label: ct.label, dim: dim, kind: "run-to-run"}
			for r := 0; r < runs; r++ {
				c.runSeed = o.BaseSeed + 100 + uint64(r)*defaultSeedGap
				key := fmt.Sprintf("%s/dim%d/run-to-run/r%d", ct.label, dim, r)
				rr.getters = append(rr.getters, e.baseline(key, c))
			}
			rows = append(rows, rr)

			// Job-to-job: fresh node allocation per job.
			jj := rowSpec{label: ct.label, dim: dim, kind: "job-to-job"}
			for r := 0; r < runs; r++ {
				c.jobSeed = o.BaseSeed + 500 + uint64(r)*defaultSeedGap
				c.runSeed = c.jobSeed + 1
				key := fmt.Sprintf("%s/dim%d/job-to-job/r%d", ct.label, dim, r)
				jj.getters = append(jj.getters, e.baseline(key, c))
			}
			rows = append(rows, jj)
		}
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	tbl := trace.NewTable("Table I: variability across runs (128 nodes, LAMMPS+all analyses)",
		"Power Cap", "dim", "Variability Type", "Variability %")
	for _, row := range rows {
		times := make([]float64, len(row.getters))
		for i, g := range row.getters {
			times[i] = float64(g())
		}
		tbl.AddRow(row.label, row.dim, row.kind, stats.VariabilityPct(times))
	}
	return tbl.Render(w)
}
