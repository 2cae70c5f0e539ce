package rollout

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"seesaw/internal/policy"
	"seesaw/internal/telemetry"
	"seesaw/internal/units"
)

// simEvents returns the hub's event sequence without campaign progress,
// which carries wall-clock time.
func simEvents(h *telemetry.Hub) []telemetry.Event {
	var out []telemetry.Event
	for _, e := range h.Events() {
		if _, ok := e.(telemetry.CampaignCell); !ok {
			out = append(out, e)
		}
	}
	return out
}

// simMetrics returns the hub's metric snapshot without the campaign
// families, which carry wall-clock time, and without the campaign
// events' count.
func simMetrics(h *telemetry.Hub) []telemetry.FamilySnapshot {
	var out []telemetry.FamilySnapshot
	for _, f := range h.Registry().Snapshot() {
		if strings.Contains(f.Name, "campaign") {
			continue
		}
		series := f.Series[:0]
		for _, s := range f.Series {
			if s.Labels["kind"] != (telemetry.CampaignCell{}).Kind() {
				series = append(series, s)
			}
		}
		f.Series = series
		out = append(out, f)
	}
	return out
}

// newTestHub returns a hub whose event ring holds every event of the
// small grids below.
func newTestHub() *telemetry.Hub { return telemetry.New(telemetry.Options{RingSize: 1 << 16}) }

// instrumentedGrid is a faulted grid on a mixed-class cluster: a kill,
// a slow excursion that ends mid-run and one still running at the end,
// under each of the four fixed policies at two budgets.
func instrumentedGrid(t *testing.T) []Point {
	t.Helper()
	points, err := Grid{
		Nodes:    []int{8},
		Budgets:  []units.Watts{105, 115},
		Steps:    20,
		Faults:   []string{"slow:0@5x2+5,kill:7@10,slow:5@15x1.5+100"},
		Classes:  []string{"1-2:gpu,5-6:lowpower"},
		Policies: []string{"seesaw", "time-aware", "power-aware", "static"},
		Seed:     3,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// rolloutFresh runs p on a fresh Env, as the one-shot driver would.
func rolloutFresh(t *testing.T, p Point) *Result {
	t.Helper()
	pol, err := policy.New(p.Policy, p.Spec.constraints(p.Spec.Workload.SimNodes+p.Spec.Workload.AnaNodes), max(p.Window, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEnv().Rollout(context.Background(), p.Spec, pol)
	if err != nil {
		t.Fatalf("%s: %v", p.Key, err)
	}
	return res
}

// sameResult reports whether two rollouts of one point agree on every
// observable the reports use.
func sameResult(t *testing.T, a, b *Result) bool {
	t.Helper()
	return a.TotalTime == b.TotalTime && a.TotalEnergy == b.TotalEnergy &&
		string(syncCSV(t, a.SyncLog)) == string(syncCSV(t, b.SyncLog)) &&
		reflect.DeepEqual(a.Cosim.FaultLog, b.Cosim.FaultLog) &&
		reflect.DeepEqual(a.Cosim.FinalCaps, b.Cosim.FinalCaps)
}

// TestInstrumentedPooledMatchesFresh pins that observing does not
// change the run: a faulted, instrumented grid on one hub and one
// pooled Env at jobs=1 gives the results, the simulation-event sequence
// and the metric snapshot of the same grid on a second hub with a
// fresh Env, and so a fresh node population, per point.
func TestInstrumentedPooledMatchesFresh(t *testing.T) {
	points := instrumentedGrid(t)
	pooledHub, freshHub := newTestHub(), newTestHub()
	pooled := make([]Point, len(points))
	for i, p := range points {
		p.Spec.Telemetry = pooledHub
		pooled[i] = p
	}
	outs, err := Batch(context.Background(), pooled, Options{Jobs: 1, Telemetry: pooledHub})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		p.Spec.Telemetry = freshHub
		if !sameResult(t, outs[i].Result, rolloutFresh(t, p)) {
			t.Errorf("%s: pooled instrumented result differs from a fresh Env's", p.Key)
		}
	}

	pe, fe := simEvents(pooledHub), simEvents(freshHub)
	if len(pe) == 0 {
		t.Fatal("the instrumented grid emitted no simulation events")
	}
	if !reflect.DeepEqual(pe, fe) {
		t.Errorf("event sequences differ: %d pooled vs %d fresh events", len(pe), len(fe))
	}
	if !reflect.DeepEqual(simMetrics(pooledHub), simMetrics(freshHub)) {
		t.Error("metric snapshots differ between pooled and fresh episodes")
	}
	if g := pooledHub.Registry().Gauge("seesaw_degraded_nodes", "", "partition").With("ana").Value(); g != 0 {
		t.Errorf("seesaw_degraded_nodes{partition=\"ana\"} = %v after the grid, want 0", g)
	}
}

// TestEnvHubSwitch pins that one Env switching hubs between points
// delivers each point's telemetry to its own hub alone: every hub ends
// with exactly the events and metrics of its point run on a fresh Env,
// and the uninstrumented points in between reach no hub.
func TestEnvHubSwitch(t *testing.T) {
	points := instrumentedGrid(t)
	env := NewEnv()
	hubs := make([]*telemetry.Hub, len(points))
	for i, p := range points {
		if i%3 != 2 {
			hubs[i] = newTestHub()
		}
		p.Spec.Telemetry = hubs[i]
		pol, err := policy.New(p.Policy, p.Spec.constraints(8), max(p.Window, 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := env.Rollout(context.Background(), p.Spec, pol); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range points {
		if hubs[i] == nil {
			continue
		}
		ref := newTestHub()
		p.Spec.Telemetry = ref
		rolloutFresh(t, p)
		if !reflect.DeepEqual(simEvents(hubs[i]), simEvents(ref)) {
			t.Errorf("%s: hub received %d events, a fresh run emits %d", p.Key, len(simEvents(hubs[i])), len(simEvents(ref)))
		}
		if !reflect.DeepEqual(simMetrics(hubs[i]), simMetrics(ref)) {
			t.Errorf("%s: hub metrics differ from a fresh run's", p.Key)
		}
	}
}
