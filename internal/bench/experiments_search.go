// The search experiment: batched policy search through the rollout
// environment. Every scenario (a mid-run analysis-node kill, a 2x
// slow-simulation excursion, and the time-shared placement) runs once
// per policy — the four hand-written allocators plus the epsilon-greedy
// bandit that picks among them per window — through rollout.Batch, the
// same path `seesawctl search` takes. The point of the bandit is not a
// better allocator but a demonstration that the rollout substrate
// supports learned selection: on regime-change scenarios it should
// match or beat every fixed policy by switching arms mid-run.
package bench

import (
	"context"
	"fmt"
	"io"
	"strings"

	"seesaw/internal/fault"
	"seesaw/internal/machine"
	"seesaw/internal/policy"
	"seesaw/internal/rollout"
	"seesaw/internal/trace"
	"seesaw/internal/workload"
)

// searchScenario is one environment configuration every policy rolls
// out in.
type searchScenario struct {
	label    string
	topology string // "" = space-shared
	plan     string // fault plan, "" = none
}

// searchScenarios builds the scenario list relative to the run length
// (mirroring the faults experiment's placement) so shrunken test runs
// keep the shape.
func searchScenarios(spec workload.Spec, steps int) []searchScenario {
	killNode := spec.SimNodes + spec.AnaNodes - 1
	killSync := max(steps/3, 2)
	slowWin := max(steps/3, 2)
	return []searchScenario{
		{label: fmt.Sprintf("kill ana node %d @ sync %d", killNode, killSync),
			plan: fmt.Sprintf("kill:%d@%d", killNode, killSync)},
		{label: fmt.Sprintf("slow sim node 0 2x @ sync %d-%d", killSync, killSync+slowWin-1),
			plan: fmt.Sprintf("slow:0@%dx2+%d", killSync, slowWin)},
		{label: "time-shared placement", topology: "time-shared"},
		{label: fmt.Sprintf("slow sim node 0 2x @ sync %d-%d, DAG placement", killSync, killSync+slowWin-1),
			topology: "dag", plan: fmt.Sprintf("slow:0@%dx2+%d", killSync, slowWin)},
	}
}

func runSearchExperiment(ctx context.Context, o Options, w io.Writer) error {
	steps := o.steps(defaultSteps)
	spec := specAt(8, defaultDim, 1, steps, workload.Tasks("msd"))
	scenarios := searchScenarios(spec, steps)
	fixed := append([]string{"static"}, policy.Compared()...)
	policies := append(append([]string(nil), fixed...), "bandit")

	var points []rollout.Point
	for si, sc := range scenarios {
		plan, err := fault.Parse(sc.plan)
		if err != nil {
			return fmt.Errorf("bench: search scenario %q: %w", sc.label, err)
		}
		for _, p := range policies {
			points = append(points, rollout.Point{
				Key: fmt.Sprintf("s%d/%s", si, p),
				Spec: rollout.Spec{
					Workload:   spec,
					Topology:   sc.topology,
					CapPerNode: defaultCap,
					Seed:       o.BaseSeed + 71,
					RunSeed:    o.BaseSeed + 72,
					Noise:      machine.DefaultNoise(),
					Faults:     plan,
					Telemetry:  o.Telemetry,
				},
				Policy: p,
				Window: 1,
			})
		}
	}

	outs, err := rollout.Batch(ctx, points, rollout.Options{Name: "search", Jobs: o.Jobs, Telemetry: o.Telemetry})
	if err != nil {
		return err
	}

	// outs is in point order: len(policies) rollouts per scenario.
	banditWins := 0
	var winLabels []string
	for si, sc := range scenarios {
		row := outs[si*len(policies) : (si+1)*len(policies)]
		bestFixed := -1.0
		for i, p := range policies {
			if p == "bandit" {
				continue
			}
			t := float64(row[i].Result.TotalTime)
			if bestFixed < 0 || t < bestFixed {
				bestFixed = t
			}
		}
		tbl := trace.NewTable(fmt.Sprintf("Search (%s)", sc.label),
			"policy", "total (s)", "vs best fixed", "energy (kJ)")
		for i, p := range policies {
			res := row[i].Result
			t := float64(res.TotalTime)
			tbl.AddRow(p,
				fmt.Sprintf("%.1f", t),
				fmt.Sprintf("%+.2f%%", (t-bestFixed)/bestFixed*100),
				fmt.Sprintf("%.1f", float64(res.TotalEnergy)/1000))
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
		if t := float64(row[len(policies)-1].Result.TotalTime); t < bestFixed {
			banditWins++
			winLabels = append(winLabels, sc.label)
		}
	}

	if banditWins > 0 {
		_, err = fmt.Fprintf(w, "The bandit beats every fixed policy on %d of %d scenarios (%s): per-window arm selection adapts where any single hand-written policy is mis-matched to part of the run.\n\n",
			banditWins, len(scenarios), strings.Join(winLabels, "; "))
	} else {
		_, err = fmt.Fprintf(w, "The bandit beats every fixed policy on 0 of %d scenarios at this run length; longer episodes give its audition phase room to amortize.\n\n",
			len(scenarios))
	}
	return err
}
