// The topologies experiment: how the four policies behave across
// in-situ placement modes. This is not a paper artifact — it exercises
// the workflow-graph engine (internal/workflow) on the paper's workload
// model under the three placements of SIM-SITU's taxonomy plus a
// multi-stage DAG pipeline: space-shared (the paper's setup),
// time-shared (simulation and analysis co-resident, half-node power
// domains contending for each node's budget share), in-transit (frames
// pay a staging hop on the producer's clock), and dag
// (sim -> filter -> {rdf, msd1d} -> reduce with fan-out/fan-in).
package bench

import (
	"context"
	"fmt"
	"io"

	"seesaw/internal/machine"
	"seesaw/internal/policy"
	"seesaw/internal/trace"
	"seesaw/internal/workflow"
	"seesaw/internal/workload"
)

const topologyNodes = 16

func runTopologies(ctx context.Context, o Options, w io.Writer) error {
	steps := o.steps(defaultSteps)
	topologies := workflow.TopologyNames()
	policies := append([]string{"static"}, policy.Compared()...)

	e := newEnum("topologies")
	var getters [][]func() *workflow.Result // [topology][policy]
	for _, tn := range topologies {
		topo, err := workflow.Build(tn, workflow.Params{
			Nodes: topologyNodes, Dim: defaultDim, J: 1, Steps: steps,
			Analyses: workload.Tasks("rdf", "msd1d"),
		})
		if err != nil {
			return fmt.Errorf("bench: topologies: %w", err)
		}
		cons := topo.ScaleCaps(constraintsFor(topo.PhysicalNodes, defaultCap))
		var row []func() *workflow.Result
		for _, p := range policies {
			topo, p := topo, p
			key := fmt.Sprintf("%s/%s", tn, p)
			row = append(row, addCell(e, key, o.BaseSeed+67, func(ctx context.Context) (*workflow.Result, error) {
				// A fresh policy per cell: the window-based policies carry
				// per-run history.
				pol, err := policy.New(p, cons, 1)
				if err != nil {
					return nil, err
				}
				return workflow.Run(ctx, workflow.Config{
					Graph:       topo.Graph,
					Steps:       steps,
					SyncEvery:   1,
					Policy:      pol,
					Constraints: cons,
					Seed:        o.BaseSeed + 67,
					RunSeed:     o.BaseSeed + 68,
					Noise:       machine.DefaultNoise(),
					Telemetry:   o.Telemetry,
				})
			}))
		}
		getters = append(getters, row)
	}
	if err := e.run(ctx, o); err != nil {
		return err
	}

	for ti, tn := range topologies {
		tbl := trace.NewTable(fmt.Sprintf("Topology %s", tn),
			"policy", "total (s)", "vs static", "energy (kJ)", "mean slack", "transfer (s)")
		for pi, p := range policies {
			res := getters[ti][pi]()
			static := getters[ti][0]()
			tbl.AddRow(p,
				fmt.Sprintf("%.1f", float64(res.MainLoopTime)),
				fmt.Sprintf("%+.2f%%", improvementPct(static.MainLoopTime, res.MainLoopTime)),
				fmt.Sprintf("%.1f", float64(res.TotalEnergy)/1000),
				fmt.Sprintf("%.3f", res.SyncLog.MeanSlackFrom(slackFromStep)),
				fmt.Sprintf("%.2f", float64(res.TransferSeconds)/float64(max(topologyNodes/2, 1))))
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "All runs place the same workload (dim=%d, rdf+msd1d, j=1) on %d physical nodes; transfer is the mean per-producer staging time (in-transit edges only). Time-shared runs split every node into two half-node power domains whose caps contend for the node's budget share.\n\n",
		defaultDim, topologyNodes)
	return err
}
