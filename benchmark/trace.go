package main

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"seesaw/internal/core"
	"seesaw/internal/policy"
	"seesaw/internal/units"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Times are seconds since the tracer
// started; Parent 0 means a root span.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Op       int     `json:"op"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
}

// tracer keeps a traced run's spans in memory and times every
// core.Policy.Allocate call of the op in flight. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	workload string
	epoch    time.Time
	op       int

	mu    sync.Mutex
	spans []span
	// timed holds the wrapped policies built since the last takeAllocate.
	timed []*timedPolicy
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span and returns its id (0 when untraced).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Workload: t.workload, Op: t.op, Start: now, End: now})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were taken by the caller.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Workload: t.workload, Op: t.op,
		Start: start.Sub(t.epoch).Seconds(), End: end.Sub(t.epoch).Seconds()})
}

// tracedPrefix marks the registry names of the timing wrappers.
const tracedPrefix = "traced-"

// policyNames registers a timing wrapper for each named policy, once per
// process, and returns the wrappers' names. The rollout layer builds
// every grid point's policy through the registry, so registering
// "traced-<name>" is how the wrapper reaches those calls without any
// change to the program.
func (t *tracer) policyNames(names []string) []string {
	out := make([]string, len(names))
	for i, name := range names {
		out[i] = tracedPrefix + name
		if policy.Valid(out[i]) {
			continue
		}
		fac, err := policy.Lookup(name)
		if err != nil {
			// Keep the unknown name: the grid reports it as the error.
			out[i] = name
			continue
		}
		policy.Register(out[i], "timing wrapper of "+name, func(cons core.Constraints, w int) (core.Policy, error) {
			p, err := fac(cons, w)
			if err != nil {
				return nil, err
			}
			return activeTracer().wrap(p), nil
		})
	}
	return out
}

// active is the tracer the registered wrappers report to. The registry
// is process-wide, so the wrapper factories find the current run's
// tracer here rather than capturing one.
var active struct {
	sync.Mutex
	t *tracer
}

func activeTracer() *tracer {
	active.Lock()
	defer active.Unlock()
	return active.t
}

func setActiveTracer(t *tracer) {
	active.Lock()
	active.t = t
	active.Unlock()
}

// timedPolicy times each Allocate call of the policy it wraps. It keeps
// the inner policy's name, and no code path branches on the policy's
// identity, so a wrapped run produces the same bytes.
type timedPolicy struct {
	inner core.Policy
	calls []time.Duration
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Allocate(step int, nodes []core.NodeMeasure) []units.Watts {
	t0 := time.Now()
	caps := p.inner.Allocate(step, nodes)
	p.calls = append(p.calls, time.Since(t0))
	return caps
}

// wrap returns p wrapped in a timer (p itself when untraced).
func (t *tracer) wrap(p core.Policy) core.Policy {
	if t == nil {
		return p
	}
	tp := &timedPolicy{inner: p}
	t.mu.Lock()
	t.timed = append(t.timed, tp)
	t.mu.Unlock()
	return tp
}

// allocateStats aggregates the Allocate calls of one op.
type allocateStats struct {
	calls        int
	p50us, p99us float64
	sumS         float64
}

// takeAllocate aggregates and forgets the Allocate timings recorded since
// the previous call. Call it after the op returns, when no policy built
// for it is still running.
func (t *tracer) takeAllocate() allocateStats {
	t.mu.Lock()
	timed := t.timed
	t.timed = nil
	t.mu.Unlock()
	var ds []float64
	for _, tp := range timed {
		for _, d := range tp.calls {
			ds = append(ds, d.Seconds())
		}
	}
	if len(ds) == 0 {
		return allocateStats{}
	}
	sort.Float64s(ds)
	var sum float64
	for _, d := range ds {
		sum += d
	}
	return allocateStats{
		calls: len(ds),
		p50us: quantileSorted(ds, 0.50) * 1e6,
		p99us: quantileSorted(ds, 0.99) * 1e6,
		sumS:  sum,
	}
}

// runtimeSample is one reading of the runtime metrics the traced run
// takes around each op.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU, idleCPU float64
	mutexWait                float64
	schedLat                 *metrics.Float64Histogram
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return s[i].Value.Uint64()
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	r := runtimeSample{
		allocBytes: u(0), allocObjects: u(1),
		gcCPU: f(2), totalCPU: f(3), idleCPU: f(4), mutexWait: f(5),
	}
	if s[6].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[6].Value.Float64Histogram()
		r.schedLat = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	}
	return r
}

// runtimeDelta turns two samples around one op into the op's go.*
// metrics.
func runtimeDelta(a, b runtimeSample) map[string]float64 {
	out := map[string]float64{
		"go.alloc_mb_per_op":      float64(b.allocBytes-a.allocBytes) / (1 << 20),
		"go.mallocs_per_op":       float64(b.allocObjects - a.allocObjects),
		"go.mutex_wait_ms_per_op": (b.mutexWait - a.mutexWait) * 1e3,
	}
	if used := (b.totalCPU - a.totalCPU) - (b.idleCPU - a.idleCPU); used > 0 {
		out["go.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / used
	}
	if a.schedLat != nil && b.schedLat != nil {
		out["go.sched_latency_p99_us"] = histQuantile(a.schedLat, b.schedLat, 0.99) * 1e6
	}
	return out
}

// histQuantile returns the q-quantile of the counts added between two
// readings of one histogram, as the upper bound of the bucket holding it.
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= want {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover.
func selfTimes(spans []span) []float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := math.Max(k.Start, reach), math.Min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// spanName groups per-experiment report sections under one row.
func spanName(name string) string {
	if strings.HasPrefix(name, "report.") {
		return "report.<experiment>"
	}
	return name
}

// writeSelfTimeTable prints, per span name, the count and the summed
// total and self time of one workload's spans.
func writeSelfTimeTable(w io.Writer, workload string, spans []span) {
	type row struct {
		name        string
		n           int
		total, self float64
	}
	self := selfTimes(spans)
	rows := map[string]*row{}
	var order []string
	for i, s := range spans {
		name := spanName(s.Name)
		r := rows[name]
		if r == nil {
			r = &row{name: name}
			rows[name] = r
			order = append(order, name)
		}
		r.n++
		r.total += s.End - s.Start
		r.self += self[i]
	}
	fmt.Fprintf(w, "self time by span, workload %s:\n", workload)
	fmt.Fprintf(w, "  %-28s %6s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, name := range order {
		r := rows[name]
		fmt.Fprintf(w, "  %-28s %6d %12.4f %12.4f\n", r.name, r.n, r.total, r.self)
	}
}
