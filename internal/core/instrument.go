// Telemetry instrumentation for power-allocation policies: a wrapper
// that reports every decision's per-node partition caps, shift magnitude
// and direction to a telemetry hub, leaving the wrapped policy's
// behaviour untouched.
package core

import (
	"seesaw/internal/telemetry"
	"seesaw/internal/units"
)

// instrumented decorates a Policy with PolicyDecision telemetry.
type instrumented struct {
	inner Policy
	hub   *telemetry.Hub
	clock func() float64
	// Per-partition power histogram handles, resolved once: Allocate
	// observes one sample per node per interval and must not pay a
	// family label lookup (plus a Role→string conversion) for each.
	powerSimM *telemetry.Metric
	powerAnaM *telemetry.Metric
}

// Instrument wraps p so that every non-nil allocation emits a
// PolicyDecision event (and updates the decision counters) on h. clock
// supplies the virtual time stamped onto events; nil stamps zero.
// Returns p unchanged when h or p is nil, so call sites can wrap
// unconditionally.
func Instrument(p Policy, h *telemetry.Hub, clock func() float64) Policy {
	if h == nil || p == nil {
		return p
	}
	return &instrumented{
		inner: p, hub: h, clock: clock,
		powerSimM: h.NodePowerMetric(RoleSimulation.String()),
		powerAnaM: h.NodePowerMetric(RoleAnalysis.String()),
	}
}

// Name implements Policy.
func (ip *instrumented) Name() string { return ip.inner.Name() }

// Allocate implements Policy: it delegates to the wrapped policy and
// reports the decision. Measurements (per-node power) are also folded
// into the partition power histograms, so the hub sees the same
// (time, power, cap) stream the policy does.
func (ip *instrumented) Allocate(step int, nodes []NodeMeasure) []units.Watts {
	for _, n := range nodes {
		switch n.Role {
		case RoleSimulation:
			ip.powerSimM.Observe(float64(n.Power))
		case RoleAnalysis:
			ip.powerAnaM.Observe(float64(n.Power))
		}
	}
	caps := ip.inner.Allocate(step, nodes)
	if caps == nil {
		return nil
	}
	var prevSim, prevAna, newSim, newAna float64
	var haveSim, haveAna bool
	for i, n := range nodes {
		if i >= len(caps) {
			break
		}
		switch {
		case n.Role == RoleSimulation && !haveSim:
			prevSim, newSim, haveSim = float64(n.Cap), float64(caps[i]), true
		case n.Role == RoleAnalysis && !haveAna:
			prevAna, newAna, haveAna = float64(n.Cap), float64(caps[i]), true
		}
		if haveSim && haveAna {
			break
		}
	}
	t := 0.0
	if ip.clock != nil {
		t = ip.clock()
	}
	ip.hub.PolicyDecision(t, ip.inner.Name(), step, prevSim, prevAna, newSim, newAna)
	return caps
}
