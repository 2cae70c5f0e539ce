// Package telemetry is the observability substrate of the repository: a
// zero-dependency metrics registry (counters, gauges, fixed-bucket
// histograms, all labeled) plus a structured event bus (typed events,
// ring-buffered, with an optional JSONL sink). The power-management
// stack — RAPL domains, the message-passing runtime, the allocation
// policies, the co-simulation drivers and the machine-level scheduler —
// reports into a Hub; seesawctl exposes the registry in Prometheus text
// format (`seesawctl serve`, /metrics) and dumps the event stream for
// any experiment (-telemetry out.jsonl).
//
// All hook methods are nil-safe: a nil *Hub makes every call a no-op
// that performs no allocation, so instrumented hot paths cost a single
// pointer comparison when telemetry is disabled
// (TestDisabledHooksDoNotAllocate pins the guarantee).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the metric families a Registry can hold.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families. All methods are safe for concurrent
// use.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*Family)}
}

// Family is one named metric with a fixed label schema; its children are
// the individual label-value combinations.
type Family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	buckets    []float64 // histogram upper bounds, ascending, without +Inf

	mu       sync.RWMutex
	children map[string]*Metric
	series   []*Metric // children in creation order
}

// Metric is one (family, label values) series: a counter or gauge is
// one atomic float64, a histogram one atomic count per bucket plus an
// atomic sum and count.
type Metric struct {
	fam       *Family
	labelVals []string

	bits    atomic.Uint64   // float64 bits: a counter's or gauge's value, a histogram's sum
	count   atomic.Uint64   // histogram observations
	buckets []atomic.Uint64 // histogram, len(fam.buckets)+1, last is +Inf
}

func (r *Registry) family(name, help string, kind Kind, buckets []float64, labelNames []string) *Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %v (was %v)", name, kind, f.kind))
		}
		return f
	}
	f := &Family{
		name:       name,
		help:       help,
		kind:       kind,
		labelNames: append([]string(nil), labelNames...),
		buckets:    append([]float64(nil), buckets...),
		children:   make(map[string]*Metric),
	}
	r.fams[name] = f
	return f
}

// Counter registers (or returns) a counter family.
func (r *Registry) Counter(name, help string, labelNames ...string) *Family {
	return r.family(name, help, KindCounter, nil, labelNames)
}

// Gauge registers (or returns) a gauge family.
func (r *Registry) Gauge(name, help string, labelNames ...string) *Family {
	return r.family(name, help, KindGauge, nil, labelNames)
}

// Histogram registers (or returns) a histogram family with the given
// ascending bucket upper bounds (an implicit +Inf bucket is appended).
func (r *Registry) Histogram(name, help string, buckets []float64, labelNames ...string) *Family {
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("telemetry: histogram %q buckets not ascending", name))
	}
	return r.family(name, help, KindHistogram, buckets, labelNames)
}

// With returns the child metric for the given label values, creating it
// on first use. The number of values must match the family's label
// schema.
func (f *Family) With(labelValues ...string) *Metric {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := ""
	switch len(labelValues) {
	case 0:
	case 1:
		key = labelValues[0]
	default:
		key = strings.Join(labelValues, "\x1f")
	}
	f.mu.RLock()
	m, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok = f.children[key]; ok {
		return m
	}
	m = &Metric{fam: f, labelVals: append([]string(nil), labelValues...)}
	if f.kind == KindHistogram {
		m.buckets = make([]atomic.Uint64, len(f.buckets)+1)
	}
	f.children[key] = m
	f.series = append(f.series, m)
	return m
}

// addBits atomically adds delta to the float64 stored in bits.
func addBits(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds 1 to a counter.
func (m *Metric) Inc() { m.Add(1) }

// Add adds v to a counter (v must be non-negative) or gauge.
func (m *Metric) Add(v float64) {
	switch m.fam.kind {
	case KindCounter:
		if v < 0 {
			panic("telemetry: counter decrease")
		}
	case KindHistogram:
		panic("telemetry: Add on histogram; use Observe")
	}
	addBits(&m.bits, v)
}

// Set sets a gauge's value.
func (m *Metric) Set(v float64) {
	if m.fam.kind != KindGauge {
		panic("telemetry: Set on non-gauge")
	}
	m.bits.Store(math.Float64bits(v))
}

// Value returns a counter's or gauge's current value.
func (m *Metric) Value() float64 {
	if m.fam.kind == KindHistogram {
		panic("telemetry: Value on histogram")
	}
	return math.Float64frombits(m.bits.Load())
}

// Observe records v into a histogram: v lands in the first bucket whose
// upper bound is >= v (+Inf catches the rest).
func (m *Metric) Observe(v float64) {
	if m.fam.kind != KindHistogram {
		panic("telemetry: Observe on non-histogram")
	}
	m.buckets[sort.SearchFloat64s(m.fam.buckets, v)].Add(1)
	addBits(&m.bits, v)
	m.count.Add(1)
}

// Count returns a histogram's total observation count.
func (m *Metric) Count() uint64 {
	if m.fam.kind != KindHistogram {
		panic("telemetry: Count on non-histogram")
	}
	return m.count.Load()
}

// Sum returns a histogram's sum of observations.
func (m *Metric) Sum() float64 {
	if m.fam.kind != KindHistogram {
		panic("telemetry: Sum on non-histogram")
	}
	return math.Float64frombits(m.bits.Load())
}

// BucketCounts returns a histogram's per-bucket (non-cumulative) counts;
// the last entry is the +Inf bucket.
func (m *Metric) BucketCounts() []uint64 {
	if m.fam.kind != KindHistogram {
		panic("telemetry: BucketCounts on non-histogram")
	}
	out := make([]uint64, len(m.buckets))
	for i := range m.buckets {
		out[i] = m.buckets[i].Load()
	}
	return out
}

// PowerBuckets returns histogram bounds for per-node power quantities in
// Watts, spanning the Theta cap range (98-215 W) with 10 W resolution.
func PowerBuckets() []float64 {
	out := make([]float64, 0, 14)
	for w := 90.0; w <= 220.0; w += 10 {
		out = append(out, w)
	}
	return out
}

// CellBuckets returns histogram bounds for campaign cell durations in
// wall-clock seconds: cells range from sub-second smoke runs to
// multi-minute 1024-node sweeps.
func CellBuckets() []float64 {
	return []float64{0.01, 0.05, 0.1, 0.5, 1, 2, 5, 10, 30, 60, 120, 300, 600}
}

// LatencyBuckets returns 1-2-5 histogram bounds for virtual-time
// latencies, from 1 microsecond to 100 seconds.
func LatencyBuckets() []float64 {
	var out []float64
	for _, mag := range []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100} {
		for _, m := range []float64{1, 2, 5} {
			if v := mag * m; v <= 100 {
				out = append(out, v)
			}
		}
	}
	return out
}

// labelPairs renders {k="v",...} for exposition (empty string when the
// family has no labels).
func labelPairs(names, vals []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", n, vals[i])
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if i > 0 || len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extra[i], extra[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a metric value in Prometheus style.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// walk calls fn for every family, sorted by name, with a copy of its
// children in creation order.
func (r *Registry) walk(fn func(f *Family, series []*Metric) error) error {
	r.mu.RLock()
	fams := make([]*Family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		f.mu.RLock()
		series := append([]*Metric(nil), f.series...)
		f.mu.RUnlock()
		if err := fn(f, series); err != nil {
			return err
		}
	}
	return nil
}

// WritePrometheus emits every family in Prometheus text exposition
// format (families sorted by name, children in creation order).
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.walk(func(f *Family, series []*Metric) error {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, m := range series {
			if err := writeChild(w, f, m); err != nil {
				return err
			}
		}
		return nil
	})
}

func writeChild(w io.Writer, f *Family, m *Metric) error {
	switch f.kind {
	case KindCounter, KindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelPairs(f.labelNames, m.labelVals), formatFloat(m.Value()))
		return err
	case KindHistogram:
		counts := m.BucketCounts()
		var cum uint64
		for i, bound := range f.buckets {
			cum += counts[i]
			le := formatFloat(bound)
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
				labelPairs(f.labelNames, m.labelVals, "le", le), cum); err != nil {
				return err
			}
		}
		cum += counts[len(f.buckets)]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
			labelPairs(f.labelNames, m.labelVals, "le", "+Inf"), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name,
			labelPairs(f.labelNames, m.labelVals), formatFloat(m.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name,
			labelPairs(f.labelNames, m.labelVals), m.Count())
		return err
	}
	return nil
}

// SeriesSnapshot is one child's state in a Snapshot.
type SeriesSnapshot struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value,omitempty"`
	Count  uint64            `json:"count,omitempty"`
	Sum    float64           `json:"sum,omitempty"`
	// Buckets maps upper bound (as formatted by formatFloat, "+Inf"
	// last) to non-cumulative count; histogram only.
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

// FamilySnapshot is one family's state in a Snapshot.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help"`
	Kind   string           `json:"kind"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot returns a point-in-time copy of every family, for the JSON
// debug endpoint. Families are sorted by name.
func (r *Registry) Snapshot() []FamilySnapshot {
	out := []FamilySnapshot{}
	r.walk(func(f *Family, series []*Metric) error {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind.String()}
		for _, m := range series {
			ss := SeriesSnapshot{}
			if len(f.labelNames) > 0 {
				ss.Labels = make(map[string]string, len(f.labelNames))
				for i, n := range f.labelNames {
					ss.Labels[n] = m.labelVals[i]
				}
			}
			switch f.kind {
			case KindCounter, KindGauge:
				ss.Value = m.Value()
			case KindHistogram:
				counts := m.BucketCounts()
				ss.Count = m.Count()
				ss.Sum = m.Sum()
				ss.Buckets = make(map[string]uint64, len(f.buckets)+1)
				for i, bound := range f.buckets {
					ss.Buckets[formatFloat(bound)] = counts[i]
				}
				ss.Buckets["+Inf"] = counts[len(f.buckets)]
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
		return nil
	})
	return out
}
