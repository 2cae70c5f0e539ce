// Oracle search: the best *static* partition split, found by exhaustive
// sweep. No online policy can be expected to beat the best static
// allocation chosen with hindsight on a stationary workload, so the
// oracle bounds how much of the available headroom each policy actually
// captures — a reference the paper does not compute but that makes the
// reproduction's relative numbers interpretable.
package cosim

import (
	"context"
	"fmt"

	"seesaw/internal/core"
	"seesaw/internal/units"
)

// OracleResult reports the sweep's outcome.
type OracleResult struct {
	// BestSimCap and BestAnaCap are the per-node caps of the fastest
	// static split found.
	BestSimCap, BestAnaCap units.Watts
	// BestTime is its runtime.
	BestTime units.Seconds
	// EvenTime is the runtime of the even split (the paper's baseline),
	// for headroom computation.
	EvenTime units.Seconds
	// Evaluated counts the splits tried.
	Evaluated int
}

// Headroom returns the fraction of runtime the best static split saves
// over the even split.
func (o OracleResult) Headroom() float64 {
	if o.EvenTime <= 0 {
		return 0
	}
	return (float64(o.EvenTime) - float64(o.BestTime)) / float64(o.EvenTime)
}

// FindBestStaticSplit sweeps per-node simulation caps in stepW
// increments (the analysis receives the remaining budget) and runs the
// full co-simulation for each, returning the fastest static allocation.
// The config's Policy is ignored; each candidate runs the static policy.
// Cancelling the context aborts the sweep with ctx.Err().
func FindBestStaticSplit(ctx context.Context, cfg Config, stepW units.Watts) (*OracleResult, error) {
	if stepW <= 0 {
		return nil, fmt.Errorf("cosim: oracle step must be positive, got %v", stepW)
	}
	// One JobState and one node population serve the whole sweep: every
	// candidate differs only in its initial caps, which are episode
	// parameters. Each ep.Run is byte-identical to a fresh cosim.Run
	// (the pooling goldens pin this), so the oracle's answers are
	// unchanged while the sweep skips per-candidate cluster builds.
	st, err := NewJobState(cfg)
	if err != nil {
		return nil, err
	}
	nSim := cfg.Spec.SimNodes
	nAna := cfg.Spec.AnaNodes
	if cfg.CapMode != CapNone {
		if err := cfg.Constraints.Validate(nSim + nAna); err != nil {
			return nil, err
		}
	}
	ep, err := st.NewEpisode()
	if err != nil {
		return nil, err
	}
	budget := cfg.Constraints.Budget
	min, max := cfg.Constraints.MinCap, cfg.Constraints.MaxCap

	res := &OracleResult{}
	even := core.EvenSplit(cfg.Constraints, nSim+nAna)
	evaluate := func(simCap, anaCap units.Watts) (*Result, error) {
		return ep.Run(ctx, EpisodeParams{
			// Policy nil runs the static policy.
			Constraints:   cfg.Constraints,
			InitialSimCap: simCap,
			InitialAnaCap: anaCap,
			CapMode:       cfg.CapMode,
			Telemetry:     cfg.Telemetry,
		})
	}

	for simCap := min; simCap <= max; simCap += stepW {
		anaCap := (budget - simCap*units.Watts(nSim)) / units.Watts(nAna)
		if anaCap < min || anaCap > max {
			continue
		}
		out, err := evaluate(simCap, anaCap)
		if err != nil {
			return nil, err
		}
		res.Evaluated++
		if res.Evaluated == 1 || out.TotalTime < res.BestTime {
			res.BestTime = out.TotalTime
			res.BestSimCap = simCap
			res.BestAnaCap = anaCap
		}
		if simCap == even {
			res.EvenTime = out.TotalTime
		}
	}
	if res.Evaluated == 0 {
		return nil, fmt.Errorf("cosim: no feasible static split under budget %v", budget)
	}
	if res.EvenTime == 0 {
		// The sweep grid missed the exact even split; run it directly.
		out, err := evaluate(even, even)
		if err != nil {
			return nil, err
		}
		res.EvenTime = out.TotalTime
	}
	return res, nil
}
