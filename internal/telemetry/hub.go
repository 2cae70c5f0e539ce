// Hub: the shared handle the instrumented stack reports into. It owns
// the metric registry, a bounded ring of recent events, and an optional
// JSONL sink. Every hook method is safe to call on a nil *Hub and costs
// nothing (no allocations, one pointer comparison) in that case, so the
// hot paths of rapl, mpi, cosim and insitu carry their hooks
// unconditionally.
package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sync"
)

// Options configures a Hub.
type Options struct {
	// RingSize bounds the in-memory event ring (default 1024): the
	// oldest events are overwritten.
	RingSize int
	// Sink, when non-nil, receives every event as one JSONL line. Sink
	// writes happen under the Hub's mutex; wrap slow writers in a
	// bufio.Writer (Close flushes writers that implement Flush).
	Sink io.Writer
}

// Hub is the process-wide telemetry endpoint. Safe for concurrent use
// from any number of goroutines (the insitu driver runs one per rank).
type Hub struct {
	reg *Registry

	// One lock orders the event stream: under it an emitter stores its
	// event in the ring and writes its sink line, so the ring and the
	// sink hold the same events in the same order.
	mu      sync.Mutex
	ring    []Event // event i lives in ring[i%len(ring)]
	emitted uint64  // events ever emitted
	sink    io.Writer
	sinkErr error

	// Pre-registered families for the instrumented hot paths.
	capWrites    *Family // counter{node}
	capGauge     *Family // gauge{node}
	throttles    *Family // counter{node}
	violations   *Family // counter{node}
	rendWait     *Family // histogram{op}: collective rendezvous wait
	idleHist     *Family // histogram{partition}: idle troughs at barriers
	decisions    *Family // counter{policy,direction}
	shiftHist    *Family // histogram{policy}: per-node shift magnitude
	powerHist    *Family // histogram{partition}: measured per-node power
	jobBudget    *Family // gauge{job}: scheduler budget share
	faults       *Family // counter{kind,partition}: fault-plan transitions
	aliveGauge   *Family // gauge{partition}: live node membership
	degrGauge    *Family // gauge{partition}: nodes under a slow excursion
	campCells    *Family // counter{campaign,status}: campaign cells finished
	campInflight *Family // gauge{campaign}: campaign cells currently running
	campCellSec  *Family // histogram{campaign}: campaign cell duration

	// The series of the label-less families, resolved at construction
	// so per-message and per-sync increments skip the registry's child
	// lookup (and its lock) entirely.
	msgs       *Metric // counter: point-to-point messages
	msgBytes   *Metric // counter: point-to-point payload bytes
	syncs      *Metric // counter: synchronization barriers
	wallHist   *Metric // histogram: interval wall time
	slackGauge *Metric // gauge: latest interval normalized slack
	dropped    *Metric // counter: events lost to sink errors

	// kindM holds the events counter series of every kind in the event
	// table (read-only after construction), so Emit skips the family's
	// label lookup on each event.
	kindM map[string]*Metric
}

// New returns a Hub with the standard metric families registered.
func New(o Options) *Hub {
	if o.RingSize <= 0 {
		o.RingSize = 1024
	}
	reg := NewRegistry()
	h := &Hub{
		reg:  reg,
		ring: make([]Event, o.RingSize),
		sink: o.Sink,

		capWrites:    reg.Counter("seesaw_cap_writes_total", "RAPL cap write operations", "node"),
		capGauge:     reg.Gauge("seesaw_power_cap_watts", "Most recently written RAPL long-term cap", "node"),
		throttles:    reg.Counter("seesaw_throttle_engaged_total", "RAPL throttle engagements (demand clipped to cap)", "node"),
		violations:   reg.Counter("seesaw_budget_violations_total", "Power observed above its limit", "node"),
		rendWait:     reg.Histogram("seesaw_barrier_wait_seconds", "Virtual time ranks wait at collective rendezvous", LatencyBuckets(), "op"),
		idleHist:     reg.Histogram("seesaw_idle_trough_seconds", "Per-node idle time at synchronization barriers", LatencyBuckets(), "partition"),
		decisions:    reg.Counter("seesaw_policy_decisions_total", "Policy allocation decisions", "policy", "direction"),
		shiftHist:    reg.Histogram("seesaw_policy_shift_watts", "Per-node power moved by one policy decision", []float64{0.5, 1, 2, 5, 10, 20, 50, 100}, "policy"),
		powerHist:    reg.Histogram("seesaw_node_power_watts", "Measured per-node average power per interval", PowerBuckets(), "partition"),
		jobBudget:    reg.Gauge("seesaw_job_budget_watts", "Per-job power budget assigned by the scheduler", "job"),
		faults:       reg.Counter("seesaw_node_faults_total", "Node lifecycle transitions fired by fault plans", "kind", "partition"),
		aliveGauge:   reg.Gauge("seesaw_alive_nodes", "Nodes still alive in the partition", "partition"),
		degrGauge:    reg.Gauge("seesaw_degraded_nodes", "Nodes currently under a slow-node excursion", "partition"),
		campCells:    reg.Counter("seesaw_campaign_cells_total", "Campaign cells finished, by status", "campaign", "status"),
		campInflight: reg.Gauge("seesaw_campaign_inflight_cells", "Campaign cells currently executing", "campaign"),
		campCellSec:  reg.Histogram("seesaw_campaign_cell_seconds", "Wall-clock duration of one campaign cell", CellBuckets(), "campaign"),

		msgs:       reg.Counter("seesaw_messages_total", "Point-to-point messages sent").With(),
		msgBytes:   reg.Counter("seesaw_message_bytes_total", "Point-to-point payload bytes sent").With(),
		syncs:      reg.Counter("seesaw_sync_total", "Simulation/analysis synchronization intervals").With(),
		wallHist:   reg.Histogram("seesaw_interval_wall_seconds", "Synchronization interval wall time", LatencyBuckets()).With(),
		slackGauge: reg.Gauge("seesaw_interval_slack", "Normalized slack of the latest interval").With(),
		dropped:    reg.Counter("seesaw_events_dropped_total", "Structured events lost to sink errors").With(),

		kindM: make(map[string]*Metric, len(eventTable)),
	}
	events := reg.Counter("seesaw_events_total", "Structured events emitted", "kind")
	for _, k := range eventTable {
		h.kindM[k.kind] = events.With(k.kind)
	}
	return h
}

// RendezvousWaitMetric returns the collective-wait histogram series for
// one op, for callers (the mpi runtime) that cache the handle instead of
// paying a label lookup on every collective. Nil on a nil hub.
func (h *Hub) RendezvousWaitMetric(op string) *Metric {
	if h == nil {
		return nil
	}
	return h.rendWait.With(op)
}

// IdleWaitMetric returns the idle-trough histogram series for one
// partition, for callers (the PoLiMER manager) that cache the handle
// across synchronizations. Nil on a nil hub.
func (h *Hub) IdleWaitMetric(partition string) *Metric {
	if h == nil {
		return nil
	}
	return h.idleHist.With(partition)
}

// NodePowerMetric returns the per-node power histogram series for one
// partition, for callers (the instrumented power probe) that cache the
// handle across intervals. Nil on a nil hub.
func (h *Hub) NodePowerMetric(partition string) *Metric {
	if h == nil {
		return nil
	}
	return h.powerHist.With(partition)
}

// CapSite bundles the resolved per-node children of the RAPL families —
// cap writes, cap gauge, throttles, violations — so a domain resolves
// its labels once at attach time and the per-write hot path never pays
// a family label lookup. A nil *CapSite no-ops every method.
type CapSite struct {
	hub        *Hub
	writes     *Metric
	gauge      *Metric
	throttles  *Metric
	violations *Metric
	eventful   bool
}

// CapSiteFor resolves one node's RAPL telemetry children. Nil on a nil
// hub.
func (h *Hub) CapSiteFor(node string, eventful bool) *CapSite {
	if h == nil {
		return nil
	}
	return &CapSite{
		hub:        h,
		writes:     h.capWrites.With(node),
		gauge:      h.capGauge.With(node),
		throttles:  h.throttles.With(node),
		violations: h.violations.With(node),
		eventful:   eventful,
	}
}

// CapWritten reports a RAPL cap write. The counter and, for long-term
// writes, the cap gauge are always updated; the structured event is
// emitted only by an eventful site, so drivers can restrict the event
// stream to one representative node per partition while counters
// still cover every node.
func (s *CapSite) CapWritten(t float64, node string, capW float64, short bool) {
	if s == nil {
		return
	}
	s.writes.Inc()
	if !short {
		s.gauge.Set(capW)
	}
	if s.eventful {
		s.hub.Emit(CapWritten{T: t, Node: node, CapW: capW, Short: short})
	}
}

// ThrottleEngaged reports a RAPL domain starting to clip demand (the
// caller gates on the engage transition).
func (s *CapSite) ThrottleEngaged(t float64, node string, demandW, allowedW float64) {
	if s == nil {
		return
	}
	s.throttles.Inc()
	if s.eventful {
		s.hub.Emit(ThrottleEngaged{T: t, Node: node, DemandW: demandW, AllowedW: allowedW})
	}
}

// BudgetViolation reports a node's enforcement window rising above its
// cap through the site's cached children; see Hub.BudgetViolation.
func (s *CapSite) BudgetViolation(t float64, node string, observedW, limitW float64) {
	if s == nil {
		return
	}
	s.violations.Inc()
	if s.eventful {
		s.hub.Emit(BudgetViolation{T: t, Node: node, ObservedW: observedW, LimitW: limitW})
	}
}

// Registry returns the hub's metric registry (nil for a nil hub).
func (h *Hub) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.reg
}

// Emit records a structured event: into the per-kind counter, the ring
// and the sink (as JSONL). The ring slot and the sink line are written
// under one lock, in one order. Once the sink has failed, every event
// emitted counts as dropped.
func (h *Hub) Emit(e Event) {
	if h == nil {
		return
	}
	if m := h.kindM[e.Kind()]; m != nil { // kinds outside the table go uncounted
		m.Inc()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ring[h.emitted%uint64(len(h.ring))] = e
	h.emitted++
	if h.sink == nil {
		return
	}
	if h.sinkErr == nil {
		line, err := Encode(e)
		if err == nil {
			_, err = h.sink.Write(append(line, '\n'))
		}
		h.sinkErr = err
	}
	if h.sinkErr != nil {
		h.dropped.Inc()
	}
}

// Events returns the ring's contents, oldest first, in the order the
// sink received them.
func (h *Hub) Events() []Event {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	n := uint64(len(h.ring))
	start := uint64(0)
	if h.emitted > n {
		start = h.emitted - n
	}
	out := make([]Event, 0, h.emitted-start)
	for i := start; i < h.emitted; i++ {
		out = append(out, h.ring[i%n])
	}
	return out
}

// Dropped returns how many events the sink lost: the event whose write
// failed and every event emitted after it.
func (h *Hub) Dropped() uint64 {
	if h == nil {
		return 0
	}
	return uint64(h.dropped.Value())
}

// Close flushes the sink when it supports flushing (e.g. bufio.Writer)
// and returns the first sink error encountered.
func (h *Hub) Close() error {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if f, ok := h.sink.(interface{ Flush() error }); ok {
		if err := f.Flush(); err != nil && h.sinkErr == nil {
			h.sinkErr = err
		}
	}
	return h.sinkErr
}

// debugState is the /debug/telemetry JSON document.
type debugState struct {
	Metrics []FamilySnapshot  `json:"metrics"`
	Events  []json.RawMessage `json:"events"`
	Dropped uint64            `json:"dropped_events"`
}

// WriteJSON emits a JSON snapshot of all metrics plus the recent event
// ring — the payload of seesawctl's /debug/telemetry endpoint.
func (h *Hub) WriteJSON(w io.Writer) error {
	if h == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	st := debugState{Metrics: h.reg.Snapshot(), Dropped: h.Dropped()}
	for _, e := range h.Events() {
		line, err := Encode(e)
		if err != nil {
			continue
		}
		st.Events = append(st.Events, line)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

// ---- hook methods (all nil-safe and allocation-free when h == nil) ----

// BudgetViolation reports observed power above its limit: a whole
// job's measured power above its budget (node == "job"). A node's RAPL
// window reports through its CapSite instead.
func (h *Hub) BudgetViolation(t float64, node string, observedW, limitW float64) {
	if h == nil {
		return
	}
	h.violations.With(node).Inc()
	h.Emit(BudgetViolation{T: t, Node: node, ObservedW: observedW, LimitW: limitW})
}

// MessageSent counts one point-to-point message (metrics only).
func (h *Hub) MessageSent(bytes int) {
	if h == nil {
		return
	}
	h.msgs.Inc()
	h.msgBytes.Add(float64(bytes))
}

// SyncBarrier reports one completed synchronization interval.
func (h *Hub) SyncBarrier(t float64, step int, wallS, simS, anaS, slack, overheadS float64) {
	if h == nil {
		return
	}
	h.syncs.Inc()
	h.wallHist.Observe(wallS)
	h.slackGauge.Set(slack)
	h.Emit(SyncBarrier{T: t, Step: step, WallS: wallS, SimS: simS, AnaS: anaS, Slack: slack, Overhead: overheadS})
}

// PolicyDecision reports one allocation decision; shift magnitude and
// direction are derived from the per-node partition caps.
func (h *Hub) PolicyDecision(t float64, policy string, step int, prevSimW, prevAnaW, simW, anaW float64) {
	if h == nil {
		return
	}
	const eps = 1e-9
	shift := simW - prevSimW
	dir := "hold"
	switch {
	case shift > eps:
		dir = "to-sim"
	case shift < -eps:
		dir = "to-ana"
	}
	h.decisions.With(policy, dir).Inc()
	h.shiftHist.With(policy).Observe(math.Abs(shift))
	h.Emit(PolicyDecision{
		T: t, Policy: policy, Step: step,
		PrevSimCapW: prevSimW, PrevAnaCapW: prevAnaW,
		SimCapW: simW, AnaCapW: anaW,
		ShiftW: math.Abs(shift), Direction: dir,
	})
}

// CampaignCellStarted reports one campaign cell entering a worker
// (metrics only: the inflight gauge is what `serve` dashboards watch).
func (h *Hub) CampaignCellStarted(campaign string) {
	if h == nil {
		return
	}
	h.campInflight.With(campaign).Add(1)
}

// CampaignCellDone reports one campaign cell leaving the worker pool
// with the given status ("ok", "error" or "skipped"); done/total carry
// the campaign's progress. Skipped cells (cancelled before starting)
// never incremented the inflight gauge, so started distinguishes them.
func (h *Hub) CampaignCellDone(campaign, key, status string, seconds float64, done, total int, started bool) {
	if h == nil {
		return
	}
	if started {
		h.campInflight.With(campaign).Add(-1)
		h.campCellSec.With(campaign).Observe(seconds)
	}
	h.campCells.With(campaign, status).Inc()
	h.Emit(CampaignCell{Campaign: campaign, Key: key, Status: status, Seconds: seconds, Done: done, Total: total})
}

// NodeKilled reports a fault plan removing a node from the membership;
// aliveSim/aliveAna are the partitions' live sizes after the kill.
func (h *Hub) NodeKilled(t float64, node int, role string, sync, aliveSim, aliveAna int) {
	if h == nil {
		return
	}
	h.faults.With("kill", role).Inc()
	h.aliveGauge.With("sim").Set(float64(aliveSim))
	h.aliveGauge.With("ana").Set(float64(aliveAna))
	h.Emit(NodeKilled{T: t, Node: node, Role: role, Sync: sync, AliveSim: aliveSim, AliveAna: aliveAna})
}

// NodeDegraded reports a slow-node excursion starting on one node.
func (h *Hub) NodeDegraded(t float64, node int, role string, sync int, factor float64) {
	if h == nil {
		return
	}
	h.faults.With("slow", role).Inc()
	h.degrGauge.With(role).Add(1)
	h.Emit(NodeDegraded{T: t, Node: node, Role: role, Sync: sync, Factor: factor})
}

// NodeRecovered reports a degraded node returning to full speed.
func (h *Hub) NodeRecovered(t float64, node int, role string, sync int) {
	if h == nil {
		return
	}
	h.faults.With("recover", role).Inc()
	h.degrGauge.With(role).Add(-1)
	h.Emit(NodeRecovered{T: t, Node: node, Role: role, Sync: sync})
}

// DegradedSettled removes n nodes of one partition from the
// degraded-nodes gauge without an event or a fault count: their run
// ended, or was cancelled, inside a slow excursion, so they no longer
// run degraded, but they did not recover either.
func (h *Hub) DegradedSettled(role string, n int) {
	if h == nil {
		return
	}
	h.degrGauge.With(role).Add(-float64(n))
}

// StageStart reports a workflow stage beginning its work for one
// synchronization interval (from the stage's first rank only).
func (h *Hub) StageStart(t float64, stage string, sync int) {
	if h == nil {
		return
	}
	h.Emit(StageStart{T: t, Stage: stage, Sync: sync})
}

// StageEnd reports a workflow stage finishing its work for one
// synchronization interval.
func (h *Hub) StageEnd(t float64, stage string, sync int, busyS float64) {
	if h == nil {
		return
	}
	h.Emit(StageEnd{T: t, Stage: stage, Sync: sync, BusyS: busyS})
}

// TransferVolume reports one workflow edge's modeled data volume at a
// synchronization (from the producing stage's first rank only).
func (h *Hub) TransferVolume(t float64, edge string, sync int, bytes int64, seconds float64) {
	if h == nil {
		return
	}
	h.Emit(TransferVolume{T: t, Edge: edge, Sync: sync, Bytes: bytes, Seconds: seconds})
}

// JobBudget reports the machine-level scheduler assigning one job's
// power budget.
func (h *Hub) JobBudget(t float64, epoch int, job string, budgetW, share float64) {
	if h == nil {
		return
	}
	h.jobBudget.With(job).Set(budgetW)
	h.Emit(BudgetShare{T: t, Epoch: epoch, Job: job, BudgetW: budgetW, Share: share})
}
