// The faults experiment: how the four policies absorb node faults.
// This is not a paper artifact — it exercises the dynamic-membership
// extension (internal/cluster + internal/fault) on the paper's
// LAMMPS+MSD workload: a mid-run node kill shifts the dead node's work
// onto its partition's survivors, and a 2x slow-node excursion
// temporarily degrades one node. Policies that re-measure (SeeSAw)
// follow the shifted energy profile and re-converge the partitions'
// sync times; the static division cannot.
package bench

import (
	"context"
	"fmt"
	"io"

	"seesaw/internal/cosim"
	"seesaw/internal/fault"
	"seesaw/internal/policy"
	"seesaw/internal/trace"
	"seesaw/internal/workload"
)

// faultScenario is one fault plan applied to every policy.
type faultScenario struct {
	label string
	plan  string // empty = fault-free reference
	// postFrom is the first sync of the post-fault steady state.
	postFrom int
}

// faultScenarios builds the kill and slow-excursion scenarios, placed
// relative to the run length so shrunken test runs keep the shape:
// fault at one third, steady state measured over the last third. The
// kill lands in the analysis partition — LAMMPS+MSD is
// analysis-dominant at the even split, so losing an analysis node
// widens the imbalance the policies must close.
func faultScenarios(spec workload.Spec, steps int) []faultScenario {
	killNode := spec.SimNodes + spec.AnaNodes - 1
	killSync := max(steps/3, 2)
	slowWin := max(steps/3, 2)
	postFrom := min(2*steps/3+1, steps)
	return []faultScenario{
		{label: "none", postFrom: postFrom},
		{label: fmt.Sprintf("kill ana node %d @ sync %d", killNode, killSync),
			plan: fmt.Sprintf("kill:%d@%d", killNode, killSync), postFrom: postFrom},
		{label: fmt.Sprintf("slow sim node 0 2x @ sync %d-%d", killSync, killSync+slowWin-1),
			plan: fmt.Sprintf("slow:0@%dx2+%d", killSync, slowWin), postFrom: postFrom},
	}
}

func runFaults(ctx context.Context, o Options, w io.Writer) error {
	steps := o.steps(defaultSteps)
	spec := specAt(8, defaultDim, 1, steps, workload.Tasks("msd"))
	scenarios := faultScenarios(spec, steps)
	policies := append([]string{"static"}, policy.Compared()...)

	e := newEnum("faults")
	var getters [][]func() *cosim.Result // [scenario][policy]
	for si, sc := range scenarios {
		var plan *fault.Plan
		if sc.plan != "" {
			p, err := fault.Parse(sc.plan)
			if err != nil {
				return fmt.Errorf("bench: faults scenario %q: %w", sc.label, err)
			}
			plan = p
		}
		var row []func() *cosim.Result
		for _, p := range policies {
			key := fmt.Sprintf("s%d/%s", si, p)
			row = append(row, e.result(key, cell{spec: spec, policy: p, faults: plan,
				jobSeed: o.BaseSeed + 61, runSeed: o.BaseSeed + 62, telemetry: o.Telemetry}))
		}
		getters = append(getters, row)
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	for si, sc := range scenarios {
		tbl := trace.NewTable(fmt.Sprintf("Faults (%s)", sc.label),
			"policy", "total (s)", "vs fault-free", "post-fault slack", "alive")
		for pi, p := range policies {
			res := getters[si][pi]()
			clean := getters[0][pi]()
			tbl.AddRow(p,
				fmt.Sprintf("%.1f", float64(res.TotalTime)),
				fmt.Sprintf("%+.2f%%", -improvementPct(clean.TotalTime, res.TotalTime)),
				fmt.Sprintf("%.3f", res.SyncLog.MeanSlackFrom(sc.postFrom)),
				fmt.Sprintf("%d+%d", res.AliveSim, res.AliveAna))
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "Post-fault slack is the mean normalized slack from sync %d on; a re-converging policy drives it back toward its fault-free value while the static division stays imbalanced.\n\n",
		scenarios[0].postFrom)
	return err
}
