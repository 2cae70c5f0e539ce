package main

import (
	"sort"
	"strings"

	"seesaw/internal/bench"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports: what a user of the
// CLI sees.
var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"rollouts_per_s", "1/s"},
	{"rss_p95_mb", "MiB"},
	{"setup_s", "s"},
}

// opLayerMetrics are the per-op layer metrics a traced op records when
// its workload reaches the layer; a traced run reports the median over
// its traced ops.
var opLayerMetrics = []metricSpec{
	{"go.alloc_mb_per_op", "MiB"},
	{"go.mallocs_per_op", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.sched_latency_p99_us", "us"},
	{"go.mutex_wait_ms_per_op", "ms"},
	{"campaign.cpu_util", "ratio"},
	{"rollout.expand_ms", "ms"},
	{"rollout.batch_s", "s"},
	{"rollout.cache_hits", "count"},
	{"rollout.cache_misses", "count"},
	{"rollout.cache_mb", "MiB"},
	{"core.allocate_calls", "count"},
	{"core.allocate_us_p50", "us"},
	{"core.allocate_us_p99", "us"},
	{"core.allocate_s_per_op", "s"},
	{"telemetry.events_per_op", "count"},
	{"telemetry.sink_mb_per_op", "MiB"},
	{"insitu.syncs", "count"},
}

// familyMetric names the summed section time of one report family.
func familyMetric(family string) string { return "bench." + family + "_s" }

// probeUnit is the unit a probe name's suffix gives.
func probeUnit(name string) string {
	return name[strings.LastIndex(name, "_")+1:]
}

// perLayer lists every metric a traced run reports, in report order.
func perLayer() []metricSpec {
	out := append([]metricSpec(nil), opLayerMetrics...)
	for _, p := range probes {
		out = append(out, metricSpec{p.name, probeUnit(p.name)}, metricSpec{allocsName(p.name), "count"})
	}
	for _, f := range bench.Families() {
		out = append(out, metricSpec{familyMetric(f.Name), "s"})
	}
	for _, m := range cpuModules {
		out = append(out, metricSpec{"cpu_share." + m, "ratio"})
	}
	return append(out, metricSpec{"trace.overhead_frac", "ratio"})
}

// timed reports whether op counts toward the timings of the ops of its
// kind (traced or not): failed ops are left out unless every op of the
// kind failed.
func timed(ops []opRecord, op opRecord) bool {
	if op.Err == "" {
		return true
	}
	for _, o := range ops {
		if o.Traced == op.Traced && o.Err == "" {
			return false
		}
	}
	return true
}

// walls returns the wall times of the timed ops of one kind.
func walls(ops []opRecord, traced bool) []float64 {
	var w []float64
	for _, op := range ops {
		if op.Traced == traced && timed(ops, op) {
			w = append(w, op.Wall)
		}
	}
	return w
}

// opSamples are the per-op samples of the end-to-end metrics, from a
// run's untraced ops.
func opSamples(rep *runReport) map[string][]float64 {
	s := map[string][]float64{}
	for _, op := range rep.Ops {
		if op.Traced || !timed(rep.Ops, op) {
			continue
		}
		s["wall_s"] = append(s["wall_s"], op.Wall)
		s["cpu_s"] = append(s["cpu_s"], op.CPU)
		if op.Wall > 0 {
			s["rollouts_per_s"] = append(s["rollouts_per_s"], float64(rep.Points)/op.Wall)
		}
	}
	return s
}

// layerValues derives the per-layer metrics from a traced run's report:
// the median over its traced ops of what each op recorded and of its
// span sums, the probes, the CPU shares and the tracing overhead. A
// per-op metric no traced op recorded, from a layer the workload does not
// reach, is left out.
func layerValues(rep *runReport) map[string]float64 {
	family := map[string]string{}
	for _, f := range bench.Families() {
		for _, id := range f.IDs {
			family["report."+id] = familyMetric(f.Name)
		}
	}
	spanSums := map[int]map[string]float64{}
	for _, s := range rep.Spans {
		name, scale := family[s.Name], 1.0
		switch s.Name {
		case "rollout.expand":
			name, scale = "rollout.expand_ms", 1e3
		case "rollout.batch":
			name = "rollout.batch_s"
		}
		if name == "" {
			continue
		}
		if spanSums[s.Op] == nil {
			spanSums[s.Op] = map[string]float64{}
		}
		spanSums[s.Op][name] += (s.End - s.Start) * scale
	}

	samples := map[string][]float64{}
	for i, op := range rep.Ops {
		if !op.Traced || !timed(rep.Ops, op) {
			continue
		}
		for name, v := range op.Layer {
			samples[name] = append(samples[name], v)
		}
		for name, v := range spanSums[i] {
			samples[name] = append(samples[name], v)
		}
		if op.Wall > 0 {
			samples["campaign.cpu_util"] = append(samples["campaign.cpu_util"], op.CPU/(op.Wall*jobs))
		}
	}

	out := map[string]float64{}
	for name, v := range samples {
		out[name] = median(v)
	}
	for name, v := range rep.Probes {
		out[name] = v
	}
	for m, v := range rep.CPUShare {
		out["cpu_share."+m] = v
	}
	if pw := median(walls(rep.Ops, false)); pw > 0 {
		out["trace.overhead_frac"] = median(walls(rep.Ops, true)) / pw
	}
	return out
}

// runMetrics turns a run's report into the metrics the run prints: for
// an untraced run the end-to-end metrics, from the ops, the set-up
// samples and the child's resident set samples in MiB, with the
// summaries behind them; for a traced run every per-layer metric, with the names of those
// the workload does not reach, which it reports as 0.
func runMetrics(rep *runReport, traced bool, setups, rss []float64) (metrics map[string]metricValue, sums map[string]summary, unreached []string) {
	metrics = map[string]metricValue{}
	if traced {
		vals := layerValues(rep)
		for _, m := range perLayer() {
			v, ok := vals[m.name]
			if !ok {
				unreached = append(unreached, m.name)
			}
			metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		}
		return metrics, nil, unreached
	}
	samples := opSamples(rep)
	samples["setup_s"] = setups
	// The 95th percentile of the resident set rather than its maximum:
	// the maximum depends on which cells happen to meet at a GC and
	// varies by a third from run to run of the report.
	rss = append([]float64(nil), rss...)
	sort.Float64s(rss)
	samples["rss_p95_mb"] = []float64{quantileSorted(rss, 0.95)}
	sums = map[string]summary{}
	for _, m := range endToEnd {
		sums[m.name] = summarize(samples[m.name])
	}
	// The op times are means over the run, its total over its ops: the
	// host's speed drifts in bursts of seconds to minutes, and the mean
	// averages over every burst a run sees, where the median of a few ops
	// flips between the fast and the slow ones.
	wall := sums["wall_s"].Mean
	value := map[string]float64{
		"wall_s":     wall,
		"cpu_s":      sums["cpu_s"].Mean,
		"setup_s":    sums["setup_s"].Median,
		"rss_p95_mb": sums["rss_p95_mb"].Median,
	}
	if wall > 0 {
		value["rollouts_per_s"] = float64(rep.Points) / wall
	}
	for _, m := range endToEnd {
		metrics[m.name] = metricValue{Value: value[m.name], Unit: m.unit}
	}
	return metrics, sums, nil
}
