// The hetero experiment: the four policies on heterogeneous device
// classes. This is not a paper artifact — it exercises the device-class
// extension (machine.Class + the allocators' capability-weighted
// division) on the paper's LAMMPS+MSD workload. Both partitions mix
// CPU and GPU nodes: at the uniform even split the GPUs sit near their
// 100 W class floor where their perf curve collapses, so the whole job
// runs at GPU-straggler speed. Policies that see per-node capabilities
// waterfill the budget by class weight — CPUs pinned at their floor,
// the freed Watts moved onto the GPUs — and recover most of the loss;
// the uniform static division cannot. A lose-the-fast-nodes fault
// scenario then kills GPU nodes mid-run to show the allocators
// re-weighting the survivors.
package bench

import (
	"context"
	"fmt"
	"io"

	"seesaw/internal/cosim"
	"seesaw/internal/fault"
	"seesaw/internal/machine"
	"seesaw/internal/policy"
	"seesaw/internal/trace"
	"seesaw/internal/workload"
)

// heteroScenario is one device-class layout (plus an optional fault
// plan) applied to every policy.
type heteroScenario struct {
	label   string
	classes string // machine.ClassMap grammar; empty = homogeneous
	plan    string // fault plan; empty = fault-free
}

// heteroScenarios builds the experiment's scenarios on an 8-node job
// (4 sim + 4 ana): the homogeneous reference, a half-CPU/half-GPU mix
// in each partition, and the same mix losing its last GPU (an analysis
// node) a third of the way in — the lose-the-fast-nodes case. The kill
// sync scales with the run length so shrunken test runs keep the shape.
func heteroScenarios(spec workload.Spec, steps int) []heteroScenario {
	mixed := "0-1:cpu,2-3:gpu,4-5:cpu,6-7:gpu"
	killNode := spec.SimNodes + spec.AnaNodes - 1
	killSync := max(steps/3, 2)
	return []heteroScenario{
		{label: "uniform (all cpu)"},
		{label: "mixed cpu/gpu", classes: mixed},
		{label: fmt.Sprintf("mixed cpu/gpu, kill gpu node %d @ sync %d", killNode, killSync),
			classes: mixed, plan: fmt.Sprintf("kill:%d@%d", killNode, killSync)},
	}
}

func runHetero(ctx context.Context, o Options, w io.Writer) error {
	steps := o.steps(defaultSteps)
	spec := specAt(8, defaultDim, 1, steps, workload.Tasks("msd"))
	scenarios := heteroScenarios(spec, steps)
	policies := append([]string{"static"}, policy.Compared()...)

	e := newEnum("hetero")
	var getters [][]func() *cosim.Result // [scenario][policy]
	for si, sc := range scenarios {
		var classes *machine.ClassMap
		if sc.classes != "" {
			cm, err := machine.ParseClassMap(sc.classes)
			if err != nil {
				return fmt.Errorf("bench: hetero scenario %q: %w", sc.label, err)
			}
			classes = cm
		}
		var plan *fault.Plan
		if sc.plan != "" {
			p, err := fault.Parse(sc.plan)
			if err != nil {
				return fmt.Errorf("bench: hetero scenario %q: %w", sc.label, err)
			}
			plan = p
		}
		var row []func() *cosim.Result
		for _, p := range policies {
			key := fmt.Sprintf("s%d/%s", si, p)
			row = append(row, e.result(key, cell{spec: spec, policy: p, faults: plan,
				classes: classes, jobSeed: o.BaseSeed + 71, runSeed: o.BaseSeed + 72,
				telemetry: o.Telemetry}))
		}
		getters = append(getters, row)
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	for si, sc := range scenarios {
		tbl := trace.NewTable(fmt.Sprintf("Heterogeneity (%s)", sc.label),
			"policy", "total (s)", "energy (kJ)", "vs static", "mean slack", "alive")
		static := getters[si][0]()
		bestImp, bestPolicy := 0.0, ""
		for pi, p := range policies {
			res := getters[si][pi]()
			imp := improvementPct(static.TotalTime, res.TotalTime)
			if imp > bestImp {
				bestImp, bestPolicy = imp, p
			}
			tbl.AddRow(p,
				fmt.Sprintf("%.1f", float64(res.TotalTime)),
				fmt.Sprintf("%.1f", float64(res.TotalEnergy)/1000),
				fmt.Sprintf("%+.2f%%", imp),
				fmt.Sprintf("%.3f", res.SyncLog.MeanSlackFrom(slackFromStep)),
				fmt.Sprintf("%d+%d", res.AliveSim, res.AliveAna))
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
		if sc.classes != "" && bestPolicy != "" {
			if _, err := fmt.Fprintf(w, "best on %s: %s, %.2f%% faster than the uniform static division\n\n",
				sc.label, bestPolicy, bestImp); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintf(w, "At the even split the GPU class sits near its 100 W floor where its perf curve collapses; capability-weighted policies pin the CPUs at their floor and waterfill the freed Watts onto the GPUs, which the uniform static division cannot.\n\n")
	return err
}
