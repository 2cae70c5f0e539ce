// Package machine models the power/performance behaviour of a compute
// node (a Theta KNL node in the paper) at the granularity of workload
// phases. It is the hardware substrate under the in-situ co-simulation:
// given a phase's nominal duration, power demand and power sensitivity,
// plus the node's RAPL state, it produces the phase's actual duration and
// the power drawn — the two observables every power-management policy in
// this repository consumes.
//
// The model captures the properties the paper's argument rests on:
//
//   - time-vs-power is non-linear and saturating: beyond a phase's
//     saturation power, more power buys no speedup (LAMMPS saturates
//     near 140 W per node, per the paper's Section VII-D);
//   - phases differ in sensitivity: compute phases speed up with power
//     while communication/IO phases barely react (Section VII-B3);
//   - drawn power is min(demand, allowed): a lightly loaded or waiting
//     node cannot use the power it is assigned (Figures 4 and 7);
//   - nodes are noisy, and power capping amplifies run-to-run
//     variability (Table I).
package machine

import (
	"fmt"

	"seesaw/internal/rapl"
	"seesaw/internal/rng"
	"seesaw/internal/units"
)

// Phase describes one unit of node activity: a span of execution with a
// fixed resource character.
type Phase struct {
	// Name identifies the phase in traces ("force", "sync", "msd", ...).
	Name string
	// Nominal is the phase duration when the node runs uncapped at the
	// phase's full demand with no noise.
	Nominal units.Seconds
	// Demand is the power the phase draws when unconstrained.
	Demand units.Watts
	// Saturation is the power beyond which the phase no longer speeds
	// up. Must be >= the model's ZeroWork power.
	Saturation units.Watts
	// Sensitivity in [0,1] is the fraction of the phase that scales
	// with power (Amdahl-style); the rest is power-insensitive
	// (communication, I/O waits).
	Sensitivity float64

	// refPerf caches the model's perf(Demand, Saturation) for a
	// device-adapted phase (filled by adapt, zero on user-constructed
	// phases): the reference point is invariant per (model, phase), so
	// pre-adapted tables pay it once per job instead of per execution.
	refPerf float64
}

// Validate reports a descriptive error if the phase parameters are
// inconsistent.
func (p Phase) Validate(m Model) error {
	if p.Nominal < 0 {
		return fmt.Errorf("machine: phase %q has negative nominal time", p.Name)
	}
	if p.Demand <= 0 {
		return fmt.Errorf("machine: phase %q has non-positive demand", p.Name)
	}
	if p.Saturation <= m.ZeroWork {
		return fmt.Errorf("machine: phase %q saturation %v not above zero-work power %v",
			p.Name, p.Saturation, m.ZeroWork)
	}
	if p.Sensitivity < 0 || p.Sensitivity > 1 {
		return fmt.Errorf("machine: phase %q sensitivity %v outside [0,1]", p.Name, p.Sensitivity)
	}
	return nil
}

// Model holds node-level performance-model constants.
type Model struct {
	// ZeroWork is the power level at which no forward progress is made
	// (static/leakage floor).
	ZeroWork units.Watts
	// IdlePower is what a node draws while waiting at a synchronization
	// point (the ~105 W plateau visible in the paper's Figure 1).
	IdlePower units.Watts
	// MinPerf bounds the slowdown: the performance factor never drops
	// below this fraction, modelling the hardware's lowest operating
	// point.
	MinPerf float64
	// CapNoiseBoost multiplies run-to-run jitter while a phase is
	// actively throttled (allowed < demand), reproducing Table I's
	// observation that power caps exacerbate variability.
	CapNoiseBoost float64
	// DualCapNoiseBoost is the additional multiplier when both long-
	// and short-term RAPL caps are in force.
	DualCapNoiseBoost float64
	// SpeedFactor is the device's throughput relative to the reference
	// KNL node: a phase's nominal duration divides by it. Zero means 1
	// (reference speed), so existing Model literals keep their meaning.
	SpeedFactor float64
	// PowerScale stretches a phase's power envelope (demand and
	// saturation) onto the device: a GPU draws more power to reach its
	// saturation point, a low-power SoC less. Zero means 1.
	PowerScale float64
}

// speedFactor returns SpeedFactor with the zero-means-1 convention.
func (m Model) speedFactor() float64 {
	if m.SpeedFactor == 0 {
		return 1
	}
	return m.SpeedFactor
}

// powerScale returns PowerScale with the zero-means-1 convention.
func (m Model) powerScale() float64 {
	if m.PowerScale == 0 {
		return 1
	}
	return m.PowerScale
}

// adapt maps a reference-node phase onto this device: faster devices
// shrink the nominal duration, and the power envelope (demand,
// saturation) stretches by the device's power scale. Both factors skip
// the arithmetic entirely at 1 so reference-class nodes reproduce the
// homogeneous path bit for bit.
func (m Model) adapt(ph Phase) Phase {
	if sf := m.speedFactor(); sf != 1 {
		ph.Nominal = units.Seconds(float64(ph.Nominal) / sf)
	}
	if ps := m.powerScale(); ps != 1 {
		ph.Demand = units.Watts(float64(ph.Demand) * ps)
		ph.Saturation = units.Watts(float64(ph.Saturation) * ps)
	}
	ph.refPerf = m.perf(ph.Demand, ph.Saturation)
	return ph
}

// DefaultModel returns constants tuned to the Theta numbers reported in
// the paper.
func DefaultModel() Model {
	return Model{
		ZeroWork:          60,
		IdlePower:         104,
		MinPerf:           0.12,
		CapNoiseBoost:     3.0,
		DualCapNoiseBoost: 2.0,
	}
}

// Scale returns the model with its power constants (zero-work floor and
// idle draw) multiplied by f, describing a fraction of a physical node.
// A time-shared placement models two co-resident stage ranks as two
// half-nodes (f = 0.5): halving every Watts constant leaves the
// perf(p, sat) curve invariant under p -> p/2, sat -> sat/2, so a
// half-node running a half-power phase at doubled nominal time
// reproduces the full node's duration and energy exactly. The
// performance-shape constants (MinPerf, noise boosts) are scale-free.
func (m Model) Scale(f float64) Model {
	if f == 1 {
		return m
	}
	m.ZeroWork = units.Watts(float64(m.ZeroWork) * f)
	m.IdlePower = units.Watts(float64(m.IdlePower) * f)
	return m
}

// perf returns the normalized performance factor at effective power p for
// a phase saturating at sat: linear in (p - ZeroWork) up to saturation,
// flat beyond, floored at MinPerf.
func (m Model) perf(p, sat units.Watts) float64 {
	if p > sat {
		p = sat
	}
	f := float64(p-m.ZeroWork) / float64(sat-m.ZeroWork)
	if f < m.MinPerf {
		f = m.MinPerf
	}
	if f > 1 {
		f = 1
	}
	return f
}

// NoiseModel configures a node's stochastic behaviour.
type NoiseModel struct {
	// SkewSigma is the lognormal sigma of the node's static speed skew
	// (job-to-job variability: node placement, manufacturing spread).
	SkewSigma float64
	// PowerEffSigma is the lognormal sigma of the node's power
	// efficiency: chips deliver different performance per Watt, so two
	// nodes at the same cap run at different speeds. Uncapped, phases
	// run near saturation where this barely matters; under a cap it
	// lands in the linear region — which is why power caps amplify
	// job-to-job variability (Table I).
	PowerEffSigma float64
	// JitterSigma is the relative stddev of per-phase duration jitter
	// (OS noise, network contention); independent across phases, it
	// mostly averages out over a long run.
	JitterSigma float64
	// RunSigma is the relative stddev of a per-run correlated slowdown
	// (zone allocation, long-lived network contention): the dominant
	// source of run-to-run variability in total runtime.
	RunSigma float64
	// DualRunSigma is an additional per-run correlated factor applied
	// while a phase is throttled under both long- and short-term caps:
	// dual-cap RAPL regulation is unstable run to run, which is why
	// "Long and Short" capping shows the largest run-to-run
	// variability in Table I.
	DualRunSigma float64
	// PowerSigma is the relative stddev of measured power ripple: the
	// interaction of DVFS steps, RAPL's averaging window and phase
	// boundaries makes per-interval power readings fluctuate around
	// the cap by a few Watts on real hardware — the noise the strictly
	// power-aware policy responds to (Section VII-B1).
	PowerSigma float64
}

// DefaultNoise returns noise magnitudes calibrated so the Table I
// variability experiment lands in the ranges the paper reports
// (sub-1% run-to-run uncapped, a few percent job-to-job, inflated by
// capping).
func DefaultNoise() NoiseModel {
	return NoiseModel{
		SkewSigma:     0.008,
		PowerEffSigma: 0.015,
		JitterSigma:   0.0025,
		PowerSigma:    0.035,
		RunSigma:      0.002,
		DualRunSigma:  0.015,
	}
}

// Node is one simulated compute node: a RAPL domain plus a performance
// model and private noise streams.
type Node struct {
	id          int
	rapl        *rapl.Domain
	model       Model
	skew        float64
	powerEff    float64
	runSkew     float64
	dualRunSkew float64
	jitter      *rng.Stream
	// jitter0 is the jitter stream's initial value, kept so Reset can
	// rewind the (consumed-during-run) stream for pooled episode reuse.
	jitter0 rng.Stream

	// noiseTrace, when non-nil, replays pre-recorded standard-normal
	// draws in place of the live jitter stream (see SetNoiseTrace);
	// noisePos is the replay cursor, rewound by Reset.
	noiseTrace []float64
	noisePos   int

	// slowFactor is a settable excursion multiplier on phase durations
	// (1 = nominal). The cluster layer drives it from fault plans to
	// model transient slow-node excursions; unlike the seeded noise
	// skews it can change mid-run.
	slowFactor float64

	busy units.Seconds // cumulative non-idle time
	idle units.Seconds // cumulative idle (sync-wait) time
}

// NewNode builds a node with a single seed driving both the job-level
// skews and the run-level jitter.
func NewNode(id int, cfg rapl.Config, model Model, noise NoiseModel, seed uint64) *Node {
	return NewNodeWithSeeds(id, cfg, model, noise, seed, seed)
}

// NewNodeWithSeeds builds a node with separate job and run seeds. The
// job seed fixes node-allocation effects (speed skew, power-efficiency
// skew): two runs inside one job share them (the paper's run-to-run
// setting), while different jobs draw fresh ones (job-to-job). The run
// seed drives per-phase jitter, fresh on every run.
func NewNodeWithSeeds(id int, cfg rapl.Config, model Model, noise NoiseModel, jobSeed, runSeed uint64) *Node {
	skewStream := rng.DeriveIndexed(jobSeed, "node-skew", id)
	effStream := rng.DeriveIndexed(jobSeed, "node-poweff", id)
	runStream := rng.DeriveIndexed(runSeed, "node-runskew", id)
	dualStream := rng.DeriveIndexed(runSeed, "node-dualskew", id)
	jitter := JitterStream(runSeed, id)
	return &Node{
		id:          id,
		rapl:        rapl.MustNewDomain(cfg),
		model:       model,
		skew:        skewStream.LogNormFactor(noise.SkewSigma),
		powerEff:    effStream.LogNormFactor(noise.PowerEffSigma),
		runSkew:     runStream.LogNormFactor(noise.RunSigma),
		dualRunSkew: dualStream.LogNormFactor(noise.DualRunSigma),
		slowFactor:  1,
		jitter:      jitter,
		jitter0:     *jitter,
	}
}

// Reset returns the node to its just-constructed state for pooled
// episode reuse: the RAPL domain rewinds to time zero, the jitter
// stream to its initial seed, and the busy/idle accounting and slow
// factor clear. The seed-derived skews are immutable during runs and
// stay as drawn, so a reset node replays exactly the execution sequence
// of a freshly built node with the same seeds.
func (n *Node) Reset() {
	n.rapl.Reset()
	*n.jitter = n.jitter0
	n.noisePos = 0
	n.slowFactor = 1
	n.busy, n.idle = 0, 0
}

// SetNoiseTrace installs a recorded standard-normal draw sequence for
// this node: subsequent phase executions consume trace entries from
// its start instead of advancing the live jitter stream, producing
// bit-identical jitter factors (the trace entries are the Norm values
// the stream would have drawn — see JitterTrace). Reset rewinds the
// replay cursor, so a node given a whole-episode trace replays it every
// episode. A driver may instead install one window per interval, just
// before the node runs that interval's phases, and check afterwards
// that NoiseTraceUnread is zero. Reading past the installed slice
// panics, so a window that ends (in length and capacity) where the
// next node's draws begin keeps an under-count from consuming them; an
// over-count shows as unread draws. nil reverts to the live stream.
// The slice is read, never written; callers may share one trace across
// any number of nodes' replays concurrently.
func (n *Node) SetNoiseTrace(t []float64) {
	n.noiseTrace = t
	n.noisePos = 0
}

// NoiseTraceUnread returns how many draws of the installed noise trace
// the node has not read yet.
func (n *Node) NoiseTraceUnread() int { return len(n.noiseTrace) - n.noisePos }

// nextNorm returns the node's next standard-normal noise draw: the
// next trace entry under replay, or a live Box-Muller draw otherwise.
// A replay past the installed trace panics — the trace length is
// derived from the same phase tables the episode executes, so running
// out is a driver accounting bug, not a recoverable condition.
func (n *Node) nextNorm() float64 {
	if n.noiseTrace != nil {
		v := n.noiseTrace[n.noisePos]
		n.noisePos++
		return v
	}
	return n.jitter.Norm()
}

// JitterStream derives node id's jitter stream under runSeed: the
// stream a node built by NewNodeWithSeeds(id, ..., runSeed) draws its
// per-phase noise from. The wiring (stream label and derivation) lives
// here alone, so recorders that hold one live stream per node can never
// drift from the live path.
func JitterStream(runSeed uint64, id int) *rng.Stream {
	return rng.DeriveIndexed(runSeed, "node-jitter", id)
}

// JitterTrace records the first draws standard normals of node id's
// jitter stream under runSeed — exactly the sequence a node built by
// NewNodeWithSeeds(id, ..., runSeed) consumes while executing phases.
func JitterTrace(runSeed uint64, id, draws int) []float64 {
	out := make([]float64, draws)
	JitterStream(runSeed, id).FillNorm(out)
	return out
}

// ID returns the node identifier.
func (n *Node) ID() int { return n.id }

// RAPL exposes the node's power domain for cap control and monitoring.
func (n *Node) RAPL() *rapl.Domain { return n.rapl }

// Model returns the node's performance-model constants.
func (n *Node) Model() Model { return n.model }

// Skew returns the node's static speed skew factor (1 = nominal).
func (n *Node) Skew() float64 { return n.skew }

// SetSlowFactor sets the node's transient excursion multiplier: phase
// durations scale by f until it is set back to 1. It panics on
// non-positive factors.
func (n *Node) SetSlowFactor(f float64) {
	if f <= 0 {
		panic(fmt.Sprintf("machine: non-positive slow factor %g", f))
	}
	n.slowFactor = f
}

// SlowFactor returns the current excursion multiplier.
func (n *Node) SlowFactor() float64 { return n.slowFactor }

// BusyTime returns cumulative time spent executing phases.
func (n *Node) BusyTime() units.Seconds { return n.busy }

// IdleTime returns cumulative time spent waiting at synchronizations.
func (n *Node) IdleTime() units.Seconds { return n.idle }

// Execution is the outcome of running a phase on a node.
type Execution struct {
	// Duration is the wall (virtual) time the phase took.
	Duration units.Seconds
	// Power is the average power drawn while executing.
	Power units.Watts
	// Throttled reports whether the RAPL cap constrained the phase.
	Throttled bool
}

// jitterSigma returns the noise magnitude for a phase execution given the
// node's capping state.
func (n *Node) jitterSigma(base float64, throttled, dualCap bool) float64 {
	s := base
	if throttled {
		s *= n.model.CapNoiseBoost
		if dualCap {
			s *= n.model.DualCapNoiseBoost
		}
	}
	return s
}

// Run executes a phase to completion on the node, advancing its RAPL
// domain, and returns the realized duration and power. noise may be zero
// for deterministic runs.
func (n *Node) Run(ph Phase, noise NoiseModel) Execution {
	ph = n.model.adapt(ph)
	if err := ph.Validate(n.model); err != nil {
		panic(err)
	}
	return n.runAdapted(&ph, &noise)
}

// ValidatePhase checks a phase against this device exactly as Run
// would (after device adaptation). Drivers that pre-validate their
// phase tables once pair it with Adapt and Node.RunAdapted.
func (m Model) ValidatePhase(ph Phase) error { return m.adapt(ph).Validate(m) }

// RunTrusted is Run without the per-execution Validate call, for a
// caller that validated the phase already: it still adapts and copies
// the phase on every execution, and is byte-identical to Run for any
// phase Run would accept.
func (n *Node) RunTrusted(ph Phase, noise NoiseModel) Execution {
	ph = n.model.adapt(ph)
	return n.runAdapted(&ph, &noise)
}

// Adapt returns the phase as this model's device class executes it
// (speed factor applied to the nominal time, power scale to the power
// points). It is the per-execution adaptation RunTrusted performs,
// exposed so drivers can pre-adapt immutable phase tables once per job.
func (m Model) Adapt(ph Phase) Phase { return m.adapt(ph) }

// RunAdapted executes a phase that was already adapted by — and
// validated against — this node's model (via Adapt/ValidatePhase). It
// is byte-identical to RunTrusted on the unadapted phase; the cosim
// episode loop runs every phase through it, from tables adapted once,
// so neither the adaptation nor the phase and noise-model copies are
// paid per execution. The phase and noise model are read, never
// retained.
func (n *Node) RunAdapted(ph *Phase, noise *NoiseModel) Execution {
	return n.runAdapted(ph, noise)
}

// runAdapted executes an already device-adapted phase.
func (n *Node) runAdapted(ph *Phase, noise *NoiseModel) Execution {
	if ph.Nominal == 0 {
		return Execution{}
	}
	allowed, dual := n.rapl.Grant(ph.Demand)
	drawn := ph.Demand
	if drawn > allowed {
		drawn = allowed
	}
	throttled := allowed < ph.Demand

	// Reference performance is at the phase's own unconstrained demand.
	// The node's power-efficiency skew shifts how much performance the
	// drawn power actually buys. adapt caches the reference point in
	// the phase; a zero cache (possible only when the model's floor
	// puts the reference at exactly 0) recomputes the same value.
	refPerf := ph.refPerf
	if refPerf == 0 {
		refPerf = n.model.perf(ph.Demand, ph.Saturation)
	}
	curPerf := n.model.perf(units.Watts(float64(drawn)*n.powerEff), ph.Saturation)
	slowdown := 1 - ph.Sensitivity + ph.Sensitivity*refPerf/curPerf

	d := float64(ph.Nominal) * slowdown * n.skew * n.runSkew
	if n.slowFactor > 0 {
		d *= n.slowFactor
	}
	if throttled && dual {
		d *= n.dualRunSkew
	}
	d *= rng.JitterFrom(n.nextNorm(), n.jitterSigma(noise.JitterSigma, throttled, dual))

	// Power-reading ripple: the realized average power of the phase
	// fluctuates around the regulated level.
	if noise.PowerSigma > 0 {
		drawn = units.Watts(float64(drawn) * rng.JitterFrom(n.nextNorm(), noise.PowerSigma))
		if tdp := n.rapl.TDP(); drawn > tdp {
			drawn = tdp
		}
	}

	dur := units.Seconds(d)
	n.rapl.Advance(dur, drawn)
	n.busy += dur
	return Execution{Duration: dur, Power: drawn, Throttled: throttled}
}

// Idle advances the node through d seconds of synchronization wait,
// drawing the model's idle power (bounded by the current cap).
func (n *Node) Idle(d units.Seconds) Execution {
	if d < 0 {
		panic("machine: negative idle duration")
	}
	if d == 0 {
		return Execution{}
	}
	p, _ := n.rapl.Grant(n.model.IdlePower)
	if p > n.model.IdlePower {
		p = n.model.IdlePower
	}
	n.rapl.Advance(d, p)
	n.idle += d
	return Execution{Duration: d, Power: p}
}

// PredictDuration returns the duration the phase would take at the given
// allowed power, without executing it or applying noise. Policies never
// call this (they are strictly online); it exists for tests and for
// computing oracle/optimal references in the experiment harness.
func (n *Node) PredictDuration(ph Phase, allowed units.Watts) units.Seconds {
	ph = n.model.adapt(ph)
	drawn := ph.Demand
	if drawn > allowed {
		drawn = allowed
	}
	refPerf := n.model.perf(ph.Demand, ph.Saturation)
	curPerf := n.model.perf(drawn, ph.Saturation)
	slowdown := 1 - ph.Sensitivity + ph.Sensitivity*refPerf/curPerf
	return units.Seconds(float64(ph.Nominal) * slowdown * n.skew)
}
