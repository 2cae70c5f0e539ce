// Structured events: the typed records the power-management stack emits
// at state changes, encoded one JSON object per line (JSONL). Events are
// the "what happened" complement to the registry's "how much/how fast"
// aggregates: a cap write, a policy decision, a synchronization barrier,
// a budget violation, a throttle engagement, a scheduler budget share.
package telemetry

import (
	"encoding/json"
	"fmt"
)

// Event is a structured telemetry record. Kind returns the stable type
// tag used in the JSONL envelope; Decode dispatches on it.
type Event interface {
	Kind() string
}

// CapWritten records a RAPL cap write on one node (after clamping,
// before the actuation latency elapses).
type CapWritten struct {
	// T is the virtual time of the write, in seconds.
	T float64 `json:"t"`
	// Node identifies the domain ("sim"/"ana" partition labels in the
	// drivers).
	Node string `json:"node"`
	// CapW is the requested cap in Watts (0 = cap removed).
	CapW float64 `json:"cap_w"`
	// Short marks a short-term (9.766 ms window) cap write.
	Short bool `json:"short,omitempty"`
}

// Kind implements Event.
func (CapWritten) Kind() string { return "CapWritten" }

// PolicyDecision records one allocation decision: the per-node partition
// caps before and after, the per-node shift magnitude, and its
// direction.
type PolicyDecision struct {
	T      float64 `json:"t"`
	Policy string  `json:"policy"`
	// Step is the synchronization index the decision acted on (1-based).
	Step int `json:"step"`
	// PrevSimCapW/PrevAnaCapW are the per-node caps in force during the
	// measured interval; SimCapW/AnaCapW are the newly emitted caps.
	PrevSimCapW float64 `json:"prev_sim_cap_w"`
	PrevAnaCapW float64 `json:"prev_ana_cap_w"`
	SimCapW     float64 `json:"sim_cap_w"`
	AnaCapW     float64 `json:"ana_cap_w"`
	// ShiftW is the absolute per-node power moved, |SimCapW - PrevSimCapW|.
	ShiftW float64 `json:"shift_w"`
	// Direction is "to-sim", "to-ana" or "hold".
	Direction string `json:"direction"`
}

// Kind implements Event.
func (PolicyDecision) Kind() string { return "PolicyDecision" }

// SyncBarrier records one simulation/analysis synchronization interval:
// the wall time, each partition's busy time, and the normalized slack.
type SyncBarrier struct {
	T        float64 `json:"t"`
	Step     int     `json:"step"`
	WallS    float64 `json:"wall_s"`
	SimS     float64 `json:"sim_s"`
	AnaS     float64 `json:"ana_s"`
	Slack    float64 `json:"slack"`
	Overhead float64 `json:"overhead_s,omitempty"`
}

// Kind implements Event.
func (SyncBarrier) Kind() string { return "SyncBarrier" }

// BudgetViolation records observed power exceeding its limit: a node's
// RAPL window average above the effective cap, or a job's summed power
// above the global budget (Node == "job").
type BudgetViolation struct {
	T         float64 `json:"t"`
	Node      string  `json:"node"`
	ObservedW float64 `json:"observed_w"`
	LimitW    float64 `json:"limit_w"`
}

// Kind implements Event.
func (BudgetViolation) Kind() string { return "BudgetViolation" }

// ThrottleEngaged records a RAPL domain starting to regulate below a
// phase's demand (emitted on the engage transition only; disengagement
// is silent).
type ThrottleEngaged struct {
	T        float64 `json:"t"`
	Node     string  `json:"node"`
	DemandW  float64 `json:"demand_w"`
	AllowedW float64 `json:"allowed_w"`
}

// Kind implements Event.
func (ThrottleEngaged) Kind() string { return "ThrottleEngaged" }

// CampaignCell records one campaign cell completing (or being skipped
// by cancellation): the experiment-matrix progress stream behind
// `seesawctl serve` during an `all -jobs N` run.
type CampaignCell struct {
	// Campaign names the campaign (usually the experiment id).
	Campaign string `json:"campaign"`
	// Key identifies the cell within the campaign.
	Key string `json:"key"`
	// Status is "ok", "error" or "skipped" (never started: cancelled).
	Status string `json:"status"`
	// Seconds is the cell's wall-clock duration (0 when skipped).
	Seconds float64 `json:"seconds"`
	// Done and Total report campaign progress: cells finished so far out
	// of the cells enumerated.
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Kind implements Event.
func (CampaignCell) Kind() string { return "CampaignCell" }

// BudgetShare records the machine-level scheduler (re)assigning one
// job's power budget.
type BudgetShare struct {
	T float64 `json:"t"`
	// Epoch is the scheduler epoch after which the division applies.
	Epoch   int     `json:"epoch"`
	Job     string  `json:"job"`
	BudgetW float64 `json:"budget_w"`
	// Share is the job's fraction of the machine budget.
	Share float64 `json:"share"`
}

// Kind implements Event.
func (BudgetShare) Kind() string { return "BudgetShare" }

// NodeKilled records a fault plan permanently removing a node from the
// membership: it stops executing, draws no power, and the allocators
// redistribute its budget share.
type NodeKilled struct {
	T float64 `json:"t"`
	// Node is the stable node id (cosim node index / insitu world rank).
	Node int `json:"node"`
	// Role is the dead node's partition ("sim"/"ana").
	Role string `json:"role"`
	// Sync is the 1-based synchronization index the kill fired at.
	Sync int `json:"sync"`
	// AliveSim/AliveAna are the partitions' live sizes after the kill.
	AliveSim int `json:"alive_sim"`
	AliveAna int `json:"alive_ana"`
}

// Kind implements Event.
func (NodeKilled) Kind() string { return "NodeKilled" }

// NodeDegraded records a slow-node excursion starting: the node keeps
// executing, but its phase durations scale by Factor until recovery.
type NodeDegraded struct {
	T      float64 `json:"t"`
	Node   int     `json:"node"`
	Role   string  `json:"role"`
	Sync   int     `json:"sync"`
	Factor float64 `json:"factor"`
}

// Kind implements Event.
func (NodeDegraded) Kind() string { return "NodeDegraded" }

// NodeRecovered records a degraded node returning to full speed.
type NodeRecovered struct {
	T    float64 `json:"t"`
	Node int     `json:"node"`
	Role string  `json:"role"`
	Sync int     `json:"sync"`
}

// Kind implements Event.
func (NodeRecovered) Kind() string { return "NodeRecovered" }

// StageStart records one workflow stage beginning its work for a
// synchronization interval (emitted by the stage's first rank only, so
// the stream stays readable at 1024 nodes).
type StageStart struct {
	T float64 `json:"t"`
	// Stage is the workflow-graph stage name ("sim", "filter", ...).
	Stage string `json:"stage"`
	// Sync is the 1-based synchronization index.
	Sync int `json:"sync"`
}

// Kind implements Event.
func (StageStart) Kind() string { return "StageStart" }

// StageEnd records one workflow stage finishing its work for a
// synchronization interval, with the representative rank's cumulative
// busy time.
type StageEnd struct {
	T     float64 `json:"t"`
	Stage string  `json:"stage"`
	Sync  int     `json:"sync"`
	// BusyS is the emitting rank's cumulative busy (phase-execution)
	// time so far.
	BusyS float64 `json:"busy_s"`
}

// Kind implements Event.
func (StageEnd) Kind() string { return "StageEnd" }

// TransferVolume records the modeled data volume of one workflow-graph
// edge at one synchronization (emitted by the producing stage's first
// rank): the edge-wide bytes shipped and the representative rank's time
// spent in the staging transfer phase (zero for edges without a
// transfer model, e.g. space-shared exchanges).
type TransferVolume struct {
	T float64 `json:"t"`
	// Edge names the graph edge as "from->to".
	Edge string `json:"edge"`
	Sync int    `json:"sync"`
	// Bytes is the edge-wide modeled volume (per-rank bytes times
	// producer ranks).
	Bytes int64 `json:"bytes"`
	// Seconds is the producing rank's transfer-phase duration.
	Seconds float64 `json:"seconds"`
}

// Kind implements Event.
func (TransferVolume) Kind() string { return "TransferVolume" }

// eventTable is the event vocabulary, one entry per kind in a fixed
// order: Decode dispatches on it, and New pre-registers an events
// counter series for each kind in this order.
var eventTable = []struct {
	kind   string
	decode func(data []byte) (Event, error)
}{
	{CapWritten{}.Kind(), decodeAs[CapWritten]},
	{PolicyDecision{}.Kind(), decodeAs[PolicyDecision]},
	{SyncBarrier{}.Kind(), decodeAs[SyncBarrier]},
	{BudgetViolation{}.Kind(), decodeAs[BudgetViolation]},
	{ThrottleEngaged{}.Kind(), decodeAs[ThrottleEngaged]},
	{BudgetShare{}.Kind(), decodeAs[BudgetShare]},
	{CampaignCell{}.Kind(), decodeAs[CampaignCell]},
	{NodeKilled{}.Kind(), decodeAs[NodeKilled]},
	{NodeDegraded{}.Kind(), decodeAs[NodeDegraded]},
	{NodeRecovered{}.Kind(), decodeAs[NodeRecovered]},
	{StageStart{}.Kind(), decodeAs[StageStart]},
	{StageEnd{}.Kind(), decodeAs[StageEnd]},
	{TransferVolume{}.Kind(), decodeAs[TransferVolume]},
}

// decodeAs unmarshals an event's data into its value form, the form
// events are emitted as, so Decode(Encode(e)) == e.
func decodeAs[T Event](data []byte) (Event, error) {
	var e T
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, err
	}
	return e, nil
}

// envelope is the JSONL wire form: {"kind": "...", "data": {...}}.
type envelope struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// Encode renders an event as one JSONL line (without trailing newline),
// the envelope around the event's JSON. Event kinds are plain
// identifiers, so the kind needs no escaping.
func Encode(e Event) ([]byte, error) {
	data, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("telemetry: encode %s: %w", e.Kind(), err)
	}
	const head, mid = `{"kind":"`, `","data":`
	// One spare byte past the closing brace lets the sink append its
	// newline without growing the line.
	line := make([]byte, 0, len(head)+len(e.Kind())+len(mid)+len(data)+2)
	line = append(line, head...)
	line = append(line, e.Kind()...)
	line = append(line, mid...)
	line = append(line, data...)
	return append(line, '}'), nil
}

// Decode parses one JSONL line back into its typed event.
func Decode(line []byte) (Event, error) {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, fmt.Errorf("telemetry: decode envelope: %w", err)
	}
	for _, k := range eventTable {
		if k.kind != env.Kind {
			continue
		}
		e, err := k.decode(env.Data)
		if err != nil {
			return nil, fmt.Errorf("telemetry: decode %s: %w", env.Kind, err)
		}
		return e, nil
	}
	return nil, fmt.Errorf("telemetry: unknown event kind %q", env.Kind)
}
