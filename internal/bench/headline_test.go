package bench

import (
	"context"
	"fmt"
	"testing"

	"seesaw/internal/units"
	"seesaw/internal/workload"
)

// These integration tests pin the paper's headline qualitative results
// so calibration regressions are caught: they run moderate-size cells
// through the full cosim stack and assert orderings, not magnitudes.

const headlineSteps = 150

// improvements runs one paired repeat of each cell at seed as one
// campaign, through enum.paired, so cells that differ only in policy
// share their static baseline. It returns the improvements in cell
// order.
func improvements(t *testing.T, seed uint64, cells ...cell) []float64 {
	t.Helper()
	e := newEnum(t.Name())
	gs := make([]func() (float64, float64), len(cells))
	for i, c := range cells {
		gs[i] = e.paired(fmt.Sprintf("%d/%s", i, c.policy), c, 1, seed)
	}
	if err := e.run(context.Background(), Options{}); err != nil {
		t.Fatal(err)
	}
	imps := make([]float64, len(cells))
	for i, g := range gs {
		imps[i], _ = g()
	}
	return imps
}

func TestHeadlineSeeSAwNeverLosesBadly(t *testing.T) {
	// Across the fig3a workloads, SeeSAw stays within noise of the
	// static baseline or better (the paper reports only improvements).
	cases := fig3aCases()
	cells := make([]cell, len(cases))
	for i, cs := range cases {
		cells[i] = cell{spec: spec128(cs.dim, 1, headlineSteps, cs.analyses), policy: "seesaw", window: 1}
	}
	for i, imp := range improvements(t, 1001, cells...) {
		if imp < -1.0 {
			t.Errorf("seesaw loses %.2f%% on %s", imp, cases[i].label)
		}
	}
}

func TestHeadlineSeeSAwWinsOnMSD(t *testing.T) {
	spec := spec128(defaultDim, 1, 400, workload.Tasks("msd"))
	imps := improvements(t, 1003,
		cell{spec: spec, policy: "seesaw", window: 1},
		cell{spec: spec, policy: "time-aware", window: 1},
		cell{spec: spec, policy: "power-aware", window: 1})
	ss, ta, pa := imps[0], imps[1], imps[2]
	if ss <= 0 {
		t.Errorf("seesaw improvement on full MSD = %.2f%%, want > 0", ss)
	}
	if ss <= ta || ss <= pa {
		t.Errorf("seesaw (%.2f%%) must beat time-aware (%.2f%%) and power-aware (%.2f%%) on the high-demand analysis",
			ss, ta, pa)
	}
}

func TestHeadlinePowerAwareLoses(t *testing.T) {
	// "The strictly power-aware approach slows down LAMMPS ... in all
	// cases" — allow noise-level exceptions only.
	cases := []analysisCase{
		{"msd", defaultDim, workload.Tasks("msd")},
		{"vacf", defaultMidDim, workload.Tasks("vacf")},
		{"rdf", defaultMidDim, workload.Tasks("rdf")},
	}
	cells := make([]cell, len(cases))
	for i, cs := range cases {
		cells[i] = cell{spec: spec128(cs.dim, 1, headlineSteps, cs.analyses), policy: "power-aware", window: 1}
	}
	for i, imp := range improvements(t, 1005, cells...) {
		if imp > 1.0 {
			t.Errorf("power-aware unexpectedly improves %s by %.2f%%", cases[i].label, imp)
		}
	}
}

func TestHeadlineTimeAwareCompetitiveOnLowDemand(t *testing.T) {
	// "The time-aware approach works well with LAMMPS+RDF and
	// LAMMPS+VACF" (up to ~13%).
	names := []string{"rdf", "vacf"}
	cells := make([]cell, len(names))
	for i, name := range names {
		cells[i] = cell{spec: spec128(defaultMidDim, 1, headlineSteps, workload.Tasks(name)), policy: "time-aware", window: 1}
	}
	for i, imp := range improvements(t, 1007, cells...) {
		if imp < 3.0 {
			t.Errorf("time-aware on %s = %.2f%%, expected a clear win", names[i], imp)
		}
	}
}

func TestHeadlineSeeSAwLocalOptimum(t *testing.T) {
	// Section VII-B2: on low-demand analyses SeeSAw settles below the
	// time-aware policy's simulation power (the local optimum), so it
	// wins less — but still wins.
	spec := spec128(defaultMidDim, 1, headlineSteps, workload.Tasks("vacf"))
	imps := improvements(t, 1009,
		cell{spec: spec, policy: "seesaw", window: 1},
		cell{spec: spec, policy: "time-aware", window: 1})
	ss, ta := imps[0], imps[1]
	if ss <= 0 {
		t.Errorf("seesaw should still improve VACF, got %.2f%%", ss)
	}
	if ta <= ss {
		t.Errorf("time-aware (%.2f%%) should beat seesaw (%.2f%%) on the low-demand analysis (local optimum)",
			ta, ss)
	}
}

func TestHeadlineFig8Shape(t *testing.T) {
	// Diminishing returns: the improvement at a 150 W cap must be well
	// below the peak region (110-120 W), and the 98 W floor gives ~0.
	spec := spec128(defaultDim, 1, headlineSteps, workload.AllAnalyses())
	at := func(cap units.Watts) cell {
		return cell{spec: spec, policy: "seesaw", window: 1, capPerNode: cap}
	}
	imps := improvements(t, 1011, at(98), at(115), at(150))
	floor, peak, loose := imps[0], imps[1], imps[2]
	if floor > 1.0 {
		t.Errorf("improvement at the 98 W floor = %.2f%%, want ~0 (no headroom)", floor)
	}
	if peak < loose+1.0 {
		t.Errorf("peak (115 W: %.2f%%) should clearly exceed the loose cap (150 W: %.2f%%)", peak, loose)
	}
}
