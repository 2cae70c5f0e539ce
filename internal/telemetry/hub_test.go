package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestNilHubIsSafe calls every hook and accessor on a nil hub; any
// panic fails the test. This is the contract that lets rapl, mpi, cosim
// and friends carry their hooks unconditionally: a nil hub resolves a
// nil CapSite, whose methods no-op, and nil metric handles, which the
// callers check once.
func TestNilHubIsSafe(t *testing.T) {
	var h *Hub
	site := h.CapSiteFor("sim", true)
	if site != nil {
		t.Error("nil hub CapSiteFor should be nil")
	}
	site.CapWritten(1, "sim", 110, false)
	site.ThrottleEngaged(1, "sim", 180, 150)
	site.BudgetViolation(1, "sim", 120, 110)
	if h.RendezvousWaitMetric("allgather") != nil || h.IdleWaitMetric("ana") != nil ||
		h.NodePowerMetric("sim") != nil {
		t.Error("nil hub metric handles should be nil")
	}
	h.BudgetViolation(1, "job", 120, 110)
	h.MessageSent(64)
	h.SyncBarrier(1, 1, 1, 1, 1, 0, 0)
	h.PolicyDecision(1, "seesaw", 1, 110, 110, 115, 105)
	h.JobBudget(1, 0, "job", 7040, 0.5)
	h.NodeKilled(1, 5, "ana", 20, 4, 3)
	h.NodeDegraded(1, 2, "sim", 10, 2)
	h.NodeRecovered(1, 2, "sim", 25)
	h.Emit(CapWritten{})
	if h.Events() != nil {
		t.Error("nil hub Events should be nil")
	}
	if h.Registry() != nil {
		t.Error("nil hub Registry should be nil")
	}
	if h.Dropped() != 0 || h.Close() != nil {
		t.Error("nil hub accessors should be zero")
	}
	var sb strings.Builder
	if err := h.WriteJSON(&sb); err != nil || !strings.Contains(sb.String(), "{}") {
		t.Errorf("nil hub WriteJSON = %q, %v", sb.String(), err)
	}
}

// TestDisabledHooksDoNotAllocate is the hot-path guarantee: with
// telemetry disabled (nil hub) a hook call is one pointer comparison and
// zero allocations.
func TestDisabledHooksDoNotAllocate(t *testing.T) {
	var h *Hub
	hooks := map[string]func(){
		"CapSite.CapWritten":   func() { h.CapSiteFor("sim", true).CapWritten(1, "sim", 110, false) },
		"RendezvousWaitMetric": func() { h.RendezvousWaitMetric("allgather") },
		"MessageSent":          func() { h.MessageSent(64) },
		"SyncBarrier":          func() { h.SyncBarrier(1, 1, 1, 1, 1, 0, 0) },
		"IdleWaitMetric":       func() { h.IdleWaitMetric("ana") },
		"NodePowerMetric":      func() { h.NodePowerMetric("sim") },
		"PolicyDecision":       func() { h.PolicyDecision(1, "seesaw", 1, 110, 110, 115, 105) },
		"JobBudget":            func() { h.JobBudget(1, 0, "job", 7040, 0.5) },
	}
	for name, fn := range hooks {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s on nil hub allocates %.1f times per call", name, allocs)
		}
	}
}

// TestRingWrap fills a small ring past capacity and checks Events
// returns the newest RingSize events, oldest first.
func TestRingWrap(t *testing.T) {
	h := New(Options{RingSize: 4})
	for i := 1; i <= 6; i++ {
		h.Emit(SyncBarrier{Step: i})
	}
	evs := h.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d, want 4", len(evs))
	}
	for i, e := range evs {
		sb, ok := e.(SyncBarrier)
		if !ok || sb.Step != i+3 {
			t.Errorf("event %d = %#v, want SyncBarrier step %d", i, e, i+3)
		}
	}
}

// TestSinkJSONL verifies the sink stream: one decodable line per event,
// in emission order, surviving a buffered writer via Close.
func TestSinkJSONL(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	h := New(Options{Sink: bw})
	h.CapSiteFor("sim", true).CapWritten(1, "sim", 110, false)
	h.SyncBarrier(2, 1, 1.5, 1.5, 1.2, 0.2, 0.001)
	h.PolicyDecision(3, "seesaw", 1, 110, 110, 115, 105)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("sink lines = %d, want 3: %q", len(lines), lines)
	}
	wantKinds := []string{"CapWritten", "SyncBarrier", "PolicyDecision"}
	for i, line := range lines {
		e, err := Decode([]byte(line))
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if e.Kind() != wantKinds[i] {
			t.Errorf("line %d kind = %s, want %s", i, e.Kind(), wantKinds[i])
		}
	}
}

type failingWriter struct{ err error }

func (f failingWriter) Write([]byte) (int, error) { return 0, f.err }

// TestSinkErrorCountsDropped: once the sink fails, the failed event
// and every later one count as dropped, in Dropped and in the
// exposition.
func TestSinkErrorCountsDropped(t *testing.T) {
	h := New(Options{Sink: failingWriter{err: errors.New("disk full")}})
	for i := 1; i <= 3; i++ {
		h.Emit(SyncBarrier{Step: i})
	}
	if got := h.Dropped(); got != 3 {
		t.Errorf("Dropped = %d, want 3", got)
	}
	var sb strings.Builder
	if err := h.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := "\nseesaw_events_dropped_total 3\n"; !strings.Contains(sb.String(), want) {
		t.Errorf("exposition missing %q", want)
	}
	if err := h.Close(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Close = %v, want the sink's write error", err)
	}
	// The ring still has the events even though the sink failed.
	if len(h.Events()) != 3 {
		t.Errorf("ring events = %d, want 3", len(h.Events()))
	}
}

// TestHooksUpdateMetrics spot-checks that each hook feeds its family,
// through the handles production code reports on: a node's CapSite, the
// cached rendezvous and idle-wait histograms, and the hub's own hooks.
func TestHooksUpdateMetrics(t *testing.T) {
	h := New(Options{})
	site := h.CapSiteFor("sim", false)
	site.CapWritten(1, "sim", 115, false)
	site.CapWritten(1, "sim", 117, true) // short write: counter only
	site.ThrottleEngaged(1, "sim", 180, 150)
	site.BudgetViolation(1, "sim", 120, 110)
	h.BudgetViolation(1, "job", 9000, 8800)
	h.RendezvousWaitMetric("allgather").Observe(0.01)
	h.MessageSent(64)
	h.MessageSent(100)
	h.SyncBarrier(1, 1, 1.5, 1.5, 1.2, 0.2, 0)
	h.IdleWaitMetric("ana").Observe(0.3)
	h.NodePowerMetric("sim").Observe(112)
	h.PolicyDecision(1, "seesaw", 1, 110, 110, 115, 105)
	h.PolicyDecision(2, "seesaw", 2, 115, 105, 115, 105)
	h.JobBudget(1, 0, "jobA", 7040, 0.5)

	var sb strings.Builder
	if err := h.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`seesaw_cap_writes_total{node="sim"} 2`,
		`seesaw_power_cap_watts{node="sim"} 115`, // short write must not move the gauge
		`seesaw_throttle_engaged_total{node="sim"} 1`,
		`seesaw_budget_violations_total{node="sim"} 1`,
		`seesaw_budget_violations_total{node="job"} 1`,
		`seesaw_barrier_wait_seconds_count{op="allgather"} 1`,
		`seesaw_messages_total 2`,
		`seesaw_message_bytes_total 164`,
		`seesaw_sync_total 1`,
		`seesaw_interval_wall_seconds_count 1`,
		`seesaw_interval_slack 0.2`,
		`seesaw_idle_trough_seconds_count{partition="ana"} 1`,
		`seesaw_policy_decisions_total{policy="seesaw",direction="to-sim"} 1`,
		`seesaw_policy_decisions_total{policy="seesaw",direction="hold"} 1`,
		`seesaw_policy_shift_watts_count{policy="seesaw"} 2`,
		`seesaw_node_power_watts_count{partition="sim"} 1`,
		`seesaw_job_budget_watts{job="jobA"} 7040`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestHubConcurrentEmit exercises the hub from many goroutines; run
// with -race (the tier-1 gate does). The ring ends holding the sink's
// last 64 events, in the sink's order.
func TestHubConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	h := New(Options{RingSize: 64, Sink: &buf})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			site := h.CapSiteFor("sim", g == 0)
			for i := 0; i < 200; i++ {
				h.SyncBarrier(float64(i), i, 1, 1, 1, 0, 0)
				h.NodePowerMetric("sim").Observe(110)
				site.CapWritten(float64(i), "sim", 110, false)
			}
		}(g)
	}
	wg.Wait()
	ring := h.Events()
	if len(ring) != 64 {
		t.Fatalf("ring should be full: %d events, want 64", len(ring))
	}
	// Every sink line must decode.
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	sunk := make([]Event, len(lines))
	for i, line := range lines {
		e, err := Decode([]byte(line))
		if err != nil {
			t.Fatalf("sink line %d: %v", i, err)
		}
		sunk[i] = e
	}
	if !reflect.DeepEqual(ring, sunk[len(sunk)-len(ring):]) {
		t.Error("ring events differ from the sink's last 64 lines")
	}
}

// TestWriteJSON sanity-checks the /debug/telemetry payload shape.
func TestWriteJSON(t *testing.T) {
	h := New(Options{})
	h.SyncBarrier(1, 1, 1.5, 1.5, 1.2, 0.2, 0)
	var sb strings.Builder
	if err := h.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []json.RawMessage `json:"metrics"`
		Events  []json.RawMessage `json:"events"`
		Dropped uint64            `json:"dropped_events"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("WriteJSON not valid JSON: %v", err)
	}
	if len(doc.Metrics) == 0 {
		t.Error("WriteJSON has no metrics")
	}
	if len(doc.Events) != 1 {
		t.Errorf("WriteJSON events = %d, want 1", len(doc.Events))
	}
	if _, err := Decode(doc.Events[0]); err != nil {
		t.Errorf("embedded event not decodable: %v", err)
	}
}

// TestNodeLifecycleHooks: the fault hooks maintain the fault counter
// and the alive/degraded gauges, and emit their typed events.
func TestNodeLifecycleHooks(t *testing.T) {
	h := New(Options{})
	h.NodeDegraded(1, 2, "sim", 10, 2)
	h.NodeKilled(2, 5, "ana", 20, 4, 3)
	h.NodeRecovered(3, 2, "sim", 25)

	var sb strings.Builder
	if err := h.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`seesaw_node_faults_total{kind="kill",partition="ana"} 1`,
		`seesaw_node_faults_total{kind="slow",partition="sim"} 1`,
		`seesaw_node_faults_total{kind="recover",partition="sim"} 1`,
		`seesaw_alive_nodes{partition="sim"} 4`,
		`seesaw_alive_nodes{partition="ana"} 3`,
		`seesaw_degraded_nodes{partition="sim"} 0`, // degraded then recovered
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	var kinds []string
	for _, e := range h.Events() {
		kinds = append(kinds, e.Kind())
	}
	want := []string{"NodeDegraded", "NodeKilled", "NodeRecovered"}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("event %d = %s, want %s", i, kinds[i], want[i])
		}
	}
}
