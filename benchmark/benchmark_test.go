package main

import (
	"context"
	"math"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"seesaw/internal/bench"
)

var (
	nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRule = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// quickRun runs one workload traced, in process, at the quick sizes with
// a zero budget: one untraced op, one traced op and the probes.
func quickRun(t *testing.T, name string) *runReport {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runWorkload(context.Background(), w, runOptions{seed: 1, quick: true, traced: true, dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if n := failedOps(rep.Ops); n != 0 || len(rep.Ops) == 0 {
		t.Fatalf("%s: %d ops, %d failed: %+v", name, len(rep.Ops), n, rep.Ops)
	}
	return rep
}

// perOpMetrics returns, sorted, the per-op layer metrics whose names
// start with one of the prefixes.
func perOpMetrics(prefixes ...string) []string {
	var names []string
	for _, m := range opLayerMetrics {
		names = append(names, m.name)
	}
	for _, f := range bench.Families() {
		names = append(names, familyMetric(f.Name))
	}
	var out []string
	for _, n := range names {
		for _, p := range prefixes {
			if strings.HasPrefix(n, p) {
				out = append(out, n)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload traced, which also runs one untraced op,
// and checks that every emitted metric is one BENCHMARK.json declares
// with the same unit, that each workload reaches the layers the README
// says it does, and the spans and CPU shares of the traced op.
func TestSmoke(t *testing.T) {
	spec, err := loadBenchSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, m := range spec.EndToEnd {
		declared[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		declared[m.Name] = m.Unit
	}
	checkEmitted := func(what string, got map[string]metricValue, want int) {
		if len(got) != want {
			t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", what, len(got), want)
		}
		for name, v := range got {
			if unit, ok := declared[name]; !ok || unit != v.Unit {
				t.Errorf("%s: metric %s (%s) not declared as such in BENCHMARK.json", what, name, v.Unit)
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: metric %s = %v", what, name, v.Value)
			}
		}
	}
	notReached := map[string][]string{
		"search":                  perOpMetrics("telemetry.", "insitu.", "bench."),
		"search-faults-telemetry": perOpMetrics("rollout.cache_", "insitu.", "bench."),
		"report":                  perOpMetrics("rollout.", "core.", "telemetry.", "insitu."),
		"insitu":                  perOpMetrics("rollout.", "telemetry.", "bench."),
	}

	for _, w := range workloads {
		rep := quickRun(t, w.name)
		got, _, _ := runMetrics(rep, false, []float64{0.001}, []float64{9, 10, 11})
		checkEmitted(w.name, got, len(spec.EndToEnd))
		for _, m := range spec.EndToEnd {
			if got[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got[m.Name].Value)
			}
		}

		traced, _, unreached := runMetrics(rep, true, nil, nil)
		checkEmitted(w.name+" traced", traced, len(spec.PerLayer))
		sort.Strings(unreached)
		if !slices.Equal(unreached, notReached[w.name]) {
			t.Errorf("%s: not reached %v, want %v", w.name, unreached, notReached[w.name])
		}
		if len(rep.Spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", w.name)
		}
		for i, st := range selfTimes(rep.Spans) {
			if st < 0 {
				t.Errorf("%s: span %s self time %v < 0", w.name, rep.Spans[i].Name, st)
			}
		}
		var sum float64
		for _, v := range rep.CPUShare {
			sum += v
		}
		// A quick search op of a few milliseconds can end before the
		// profiler's first sample; the report's op always outlasts it.
		if (sum != 0 || w.name == "report") && math.Abs(sum-1) > 0.02 {
			t.Errorf("%s: cpu_share sums to %v, want 1 ± 0.02 (%v)", w.name, sum, rep.CPUShare)
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the benchmark: the
// same workloads and metrics, and names, units and bounds within the
// rules the file must follow.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := loadBenchSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRule.MatchString(name) || seen[name] {
			t.Errorf("metric name %q breaks the name rules or repeats", name)
		}
		seen[name] = true
		if !unitRule.MatchString(unit) {
			t.Errorf("metric %s: unit %q breaks the unit rules", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("metric %s: better %q", name, better)
		}
	}
	for _, w := range spec.Workloads {
		if !nameRule.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q breaks the name rules or repeats", w.Name)
		}
		seen[w.Name] = true
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if i < len(endToEnd) && (m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit) {
			t.Errorf("end-to-end metric %d is %s (%s), the benchmark reports %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
	}
	layers := perLayer()
	if len(spec.PerLayer) != len(layers) || len(layers) > 128 {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(layers))
	}
	for i, m := range spec.PerLayer {
		check(m.Name, m.Unit, m.Better)
		if i < len(layers) && (m.Name != layers[i].name || m.Unit != layers[i].unit) {
			t.Errorf("per-layer metric %d is %s (%s), the benchmark reports %s (%s)", i, m.Name, m.Unit, layers[i].name, layers[i].unit)
		}
	}
}

// TestOutputCheck perturbs one op's output and checks that it counts as
// failed, as does a digest that differs from the pinned one.
func TestOutputCheck(t *testing.T) {
	ops := []opRecord{{Digest: "aa"}, {Digest: "aa"}, {Digest: "aa"}}
	checkOutputs(ops, "")
	if n := failedOps(ops); n != 0 {
		t.Fatalf("agreeing ops: %d failed", n)
	}
	perturbed := append([]opRecord(nil), ops...)
	perturbed[2].Digest = "ab"
	checkOutputs(perturbed, "")
	if n := failedOps(perturbed); n != 1 || perturbed[2].Err == "" {
		t.Errorf("perturbed op: %d failed, want the third", n)
	}
	pinned := append([]opRecord(nil), ops...)
	checkOutputs(pinned, "bb")
	if n := failedOps(pinned); n != len(pinned) {
		t.Errorf("pinned mismatch: %d of %d failed", n, len(pinned))
	}
	if _, err := pinnedDigests(); err != nil {
		t.Error(err)
	}
}

// TestCompareVerdicts covers the comparator's rules.
func TestCompareVerdicts(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10.05, 9.95}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		new    []float64
		higher bool
		want   string
	}{
		{"same", append([]float64(nil), base...), false, "no change"},
		{"faster", scale(base, 0.9), false, "gain"},
		{"slower", scale(base, 1.2), false, "regression"},
		{"slower within bound", scale(base, 1.05), false, "no change"},
		{"throughput up", scale(base, 1.1), true, "gain"},
		{"noisy", []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}, false, "unresolved"},
	} {
		if got := compareMetric(base, tc.new, tc.higher, 0.1).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
