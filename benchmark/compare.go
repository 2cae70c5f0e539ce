package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparator reads: the
// workloads and the metrics with their bounds.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRecords reads every run record in dir (the results directory a
// set of runs wrote under --out), oldest first.
func loadRecords(dir string) ([]record, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var recs []record
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("no run records in %s", dir)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Started.Before(recs[j].Started) })
	return recs, nil
}

// comparison is one workload and metric across the two sets.
type comparison struct {
	base, new  summary
	pairs, won int
	allBetter  bool
	verdict    string
}

// compareMetric judges one metric. A regression is a median worse than
// the base by more than bound. A gain needs the new side to win at least
// nine tenths of the pairs (ties count for neither) and the medians to
// differ by more than the base side's interquartile range. When either
// side's spread exceeds the bound the change is unresolved, unless every
// new run reads better than every base run. bound < 0 marks a metric
// without a bound, which gets no verdict.
func compareMetric(base, new []float64, higherBetter bool, bound float64) comparison {
	c := comparison{base: summarize(base), new: summarize(new)}
	better := func(a, b float64) bool { // a better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	c.pairs = min(len(base), len(new))
	for i := 0; i < c.pairs; i++ {
		if better(new[i], base[i]) {
			c.won++
		}
	}
	c.allBetter = len(base) > 0 && len(new) > 0
	for _, n := range new {
		for _, b := range base {
			if !better(n, b) {
				c.allBetter = false
			}
		}
	}
	if bound < 0 || c.pairs == 0 {
		c.verdict = "-"
		return c
	}
	spread := func(s summary) float64 {
		if s.Median == 0 {
			return 0
		}
		return (s.Q3 - s.Q1) / math.Abs(s.Median)
	}
	worse := 0.0
	if c.base.Median != 0 {
		worse = (c.new.Median - c.base.Median) / math.Abs(c.base.Median)
		if higherBetter {
			worse = -worse
		}
	}
	switch {
	case float64(c.won) >= 0.9*float64(c.pairs) && worse < 0 &&
		math.Abs(c.new.Median-c.base.Median) > c.base.Q3-c.base.Q1:
		c.verdict = "gain"
	case math.Max(spread(c.base), spread(c.new)) > bound:
		if c.allBetter {
			c.verdict = "gain (every run)"
		} else {
			c.verdict = "unresolved"
		}
	case worse > bound:
		c.verdict = "regression"
	default:
		c.verdict = "no change"
	}
	return c
}

// runCompare implements `benchmark compare BASE NEW`.
func runCompare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark description with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [--bench BENCHMARK.json] BASE_RESULTS_DIR NEW_RESULTS_DIR")
		return 2
	}
	spec, err := loadBenchSpec(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 1
	}
	base, err := loadRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 1
	}
	next, err := loadRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 1
	}
	if writeComparison(os.Stdout, spec, base, next) {
		return 1
	}
	return 0
}

// writeComparison prints, per workload and metric, both sides' medians
// and quartiles, the pairs the new side won and the verdict. It reports
// whether any metric regressed or failures rose.
func writeComparison(w io.Writer, spec *benchSpec, base, next []record) (regressed bool) {
	values := func(recs []record, workload, metric string, traced bool) []float64 {
		var v []float64
		for _, r := range recs {
			if r.Workload != workload || r.Trace != traced || slices.Contains(r.Unreached, metric) {
				continue
			}
			if m, ok := r.Result.Metrics[metric]; ok {
				v = append(v, m.Value)
			}
		}
		return v
	}
	failures := func(recs []record, workload string) (failed, attempted int) {
		for _, r := range recs {
			if r.Workload == workload {
				failed += r.Result.Failed
				attempted += r.Result.Attempted
			}
		}
		return failed, attempted
	}
	for _, wl := range spec.Workloads {
		bf, ba := failures(base, wl.Name)
		nf, na := failures(next, wl.Name)
		if ba == 0 && na == 0 {
			continue
		}
		fmt.Fprintf(w, "workload %s: failed ops base %d/%d, new %d/%d\n", wl.Name, bf, ba, nf, na)
		if ba > 0 && na > 0 && float64(nf)/float64(na) > float64(bf)/float64(ba) {
			fmt.Fprintln(w, "  failed ops rose: regression")
			regressed = true
		}
		fmt.Fprintf(w, "  %-32s %-30s %-30s %8s %7s  %s\n", "metric", "base median [q1, q3]", "new median [q1, q3]", "change", "won", "verdict")
		row := func(name string, traced, higher bool, bound float64) {
			b, n := values(base, wl.Name, name, traced), values(next, wl.Name, name, traced)
			if len(b) == 0 || len(n) == 0 {
				return
			}
			c := compareMetric(b, n, higher, bound)
			change := "n/a"
			switch {
			case c.base.Median != 0:
				change = fmt.Sprintf("%+.2f%%", 100*(c.new.Median-c.base.Median)/math.Abs(c.base.Median))
			case c.new.Median == 0:
				change = "+0.00%"
			}
			fmt.Fprintf(w, "  %-32s %-30s %-30s %8s %3d/%-3d  %s\n", name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", c.base.Median, c.base.Q1, c.base.Q3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", c.new.Median, c.new.Q1, c.new.Q3),
				change, c.won, c.pairs, c.verdict)
			if c.verdict == "regression" {
				regressed = true
			}
		}
		for _, m := range spec.EndToEnd {
			row(m.Name, false, strings.EqualFold(m.Better, "higher"), m.Bound)
		}
		for _, m := range spec.PerLayer {
			row(m.Name, true, strings.EqualFold(m.Better, "higher"), -1)
		}
	}
	return regressed
}
