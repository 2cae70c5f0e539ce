// Self-test: the paper's headline qualitative claims, runnable as a
// single command (`seesawctl selftest`). Each check runs moderate-size
// cells through the full stack and asserts an ordering, not a magnitude
// — the same invariants the test suite pins, exposed to users verifying
// an installation or a modified calibration.
package bench

import (
	"context"
	"fmt"
	"io"

	"seesaw/internal/units"
	"seesaw/internal/workload"
)

// SelfTestResult is one check's outcome.
type SelfTestResult struct {
	Detail string
	Pass   bool
}

// RunSelfTest executes every headline check, writes one line per check
// to w, and reports whether all passed. The checks' paired comparisons
// run as one campaign (bounded by o.Jobs) before any line is written.
func RunSelfTest(ctx context.Context, o Options, w io.Writer) (bool, error) {
	steps := o.steps(150)
	e := newEnum("selftest")

	// imp enumerates one paired repeat of the policy on spec at seed and
	// returns a getter for its improvement over the static baseline.
	imp := func(key, policy string, spec workload.Spec, capPerNode units.Watts, seed uint64) func() float64 {
		g := e.paired(key+"/"+policy, cell{spec: spec, policy: policy, window: 1, capPerNode: capPerNode}, 1, seed)
		return func() float64 {
			v, _ := g()
			return v
		}
	}

	type check struct {
		name string
		eval func() SelfTestResult
	}
	var checks []check

	msd := spec128(defaultDim, 1, 400, workload.Tasks("msd"))
	msdSS := imp("wins/msd", "seesaw", msd, 0, o.BaseSeed+1003)
	msdTA := imp("wins/msd", "time-aware", msd, 0, o.BaseSeed+1003)
	msdPA := imp("wins/msd", "power-aware", msd, 0, o.BaseSeed+1003)
	checks = append(checks, check{"seesaw wins on the high-demand analysis (full MSD)", func() SelfTestResult {
		ss, ta, pa := msdSS(), msdTA(), msdPA()
		return SelfTestResult{
			Detail: fmt.Sprintf("seesaw %+.2f%%, time-aware %+.2f%%, power-aware %+.2f%%", ss, ta, pa),
			Pass:   ss > 0 && ss > ta && ss > pa,
		}
	}})

	paCases := []analysisCase{
		{"msd", defaultDim, workload.Tasks("msd")},
		{"vacf", defaultMidDim, workload.Tasks("vacf")},
	}
	paImps := make([]func() float64, len(paCases))
	for i, cs := range paCases {
		paImps[i] = imp("pa-loses/"+cs.label, "power-aware", spec128(cs.dim, 1, steps, cs.analyses), 0, o.BaseSeed+1005)
	}
	checks = append(checks, check{"power-aware loses across workloads", func() SelfTestResult {
		worst := 100.0
		for i, cs := range paCases {
			v := paImps[i]()
			if v < worst {
				worst = v
			}
			if v > 1.0 {
				return SelfTestResult{Detail: fmt.Sprintf("%s improved %+.2f%%", cs.label, v)}
			}
		}
		return SelfTestResult{Detail: fmt.Sprintf("worst %+.2f%%", worst), Pass: true}
	}})

	vacf := spec128(defaultMidDim, 1, steps, workload.Tasks("vacf"))
	vacfTA := imp("ta-competitive/vacf", "time-aware", vacf, 0, o.BaseSeed+1007)
	checks = append(checks, check{"time-aware competitive on low-demand analyses", func() SelfTestResult {
		v := vacfTA()
		return SelfTestResult{Detail: fmt.Sprintf("vacf %+.2f%%", v), Pass: v > 3}
	}})

	optSS := imp("local-optimum/vacf", "seesaw", vacf, 0, o.BaseSeed+1009)
	optTA := imp("local-optimum/vacf", "time-aware", vacf, 0, o.BaseSeed+1009)
	checks = append(checks, check{"seesaw local optimum below the time-aware reference on low demand", func() SelfTestResult {
		ss, ta := optSS(), optTA()
		return SelfTestResult{
			Detail: fmt.Sprintf("seesaw %+.2f%% < time-aware %+.2f%%, both > 0", ss, ta),
			Pass:   ss > 0 && ta > ss,
		}
	}})

	all := spec128(defaultDim, 1, steps, workload.AllAnalyses())
	peak := imp("fig8/cap115", "seesaw", all, 115, o.BaseSeed+1011)
	loose := imp("fig8/cap150", "seesaw", all, 150, o.BaseSeed+1011)
	checks = append(checks, check{"diminishing returns past ~140 W (fig 8 shape)", func() SelfTestResult {
		p, l := peak(), loose()
		return SelfTestResult{
			Detail: fmt.Sprintf("115 W: %+.2f%%, 150 W: %+.2f%%", p, l),
			Pass:   p > l+1,
		}
	}})

	if err := e.run(ctx, o); err != nil {
		return false, fmt.Errorf("selftest: %w", err)
	}
	pass := true
	for _, c := range checks {
		res := c.eval()
		status := "PASS"
		if !res.Pass {
			status = "FAIL"
			pass = false
		}
		if _, err := fmt.Fprintf(w, "%-4s %s (%s)\n", status, c.name, res.Detail); err != nil {
			return false, err
		}
	}
	return pass, nil
}
