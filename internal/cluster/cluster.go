// Package cluster owns node lifecycle for the simulated jobs: it
// constructs the machine.Nodes of a two-partition in-situ job (the
// wiring previously duplicated across the cosim and insitu drivers),
// tracks per-node health on the virtual clock, and applies deterministic
// fault plans (package fault), exposing a membership view that shrinks
// or weakens as faults fire.
//
// Health is three-valued: Healthy nodes run at full speed, Degraded
// nodes keep executing with their phase durations scaled by a slow
// factor (a transient excursion: thermal throttling, a failing fan, OS
// interference), and Dead nodes stop executing and draw no power. Every
// transition is recorded as a Transition and mirrored to telemetry
// (NodeKilled / NodeDegraded / NodeRecovered events plus the fault
// counter and alive/degraded gauges).
//
// Two application paths serve the two drivers: the sequential cosim
// driver calls Advance once per synchronization interval to apply the
// plan cluster-wide, while the goroutine-per-rank insitu driver has each
// rank call Apply for its own node (each rank only ever touches its own
// machine.Node, so the slow-factor write stays single-owner).
package cluster

import (
	"fmt"
	"sort"
	"sync"

	"seesaw/internal/core"
	"seesaw/internal/fault"
	"seesaw/internal/machine"
	"seesaw/internal/telemetry"
	"seesaw/internal/units"
)

// Config describes the node population of one job.
type Config struct {
	// SimNodes and AnaNodes are the partition sizes; node ids 0 to
	// SimNodes-1 are simulation, the rest analysis (the drivers' rank
	// layout).
	SimNodes, AnaNodes int
	// Noise configures node variability; zero disables noise for the
	// whole run, including any per-class profiles.
	Noise machine.NoiseModel
	// Classes assigns device classes to node ids (the
	// machine.ClassMap grammar, e.g. "0-511:cpu,512-575:gpu"); names
	// resolve against the built-in presets (machine.PresetNames).
	// Unmapped nodes are built from machine.DefaultClass. Nil keeps the
	// cluster homogeneous: every node is of the default class.
	Classes *machine.ClassMap
	// JobSeed fixes node-allocation effects (speed and power-efficiency
	// skews); RunSeed drives per-run jitter. RunSeed zero falls back to
	// JobSeed (the single-seed behaviour of the insitu driver).
	JobSeed, RunSeed uint64
	// Faults is the fault plan applied on the virtual clock; nil means a
	// fault-free run.
	Faults *fault.Plan
	// Scales optionally gives each node a physical-fraction factor: node
	// i is built with its machine model and RAPL domain scaled by
	// Scales[i] (see machine.Model.Scale). The workflow engine uses it
	// for time-shared placements, where two co-resident stage ranks each
	// own a half-node. Nil means every node is a full node; when set, the
	// length must equal SimNodes+AnaNodes and every factor must be in
	// (0, 1].
	Scales []float64
	// Telemetry, when non-nil, receives per-partition RAPL metrics from
	// every node (events from one representative node per partition, to
	// stay readable at 1024 nodes) and the node-lifecycle events.
	Telemetry *telemetry.Hub
}

// Transition records one health change applied by the fault plan.
type Transition struct {
	// NodeID is the stable node id (cosim node index / insitu world rank).
	NodeID int
	// Role is the node's partition.
	Role core.Role
	// From and To are the health states before and after.
	From, To core.Health
	// Factor is the slow multiplier in force after the transition
	// (1 unless To is Degraded).
	Factor float64
	// Sync is the 1-based synchronization index the transition fired at.
	Sync int
	// T is the virtual time of the transition.
	T units.Seconds
}

// String renders a transition for logs and traces.
func (tr Transition) String() string {
	if tr.To == core.Degraded {
		return fmt.Sprintf("sync %d: node %d (%s) %s -> %s x%g", tr.Sync, tr.NodeID, tr.Role, tr.From, tr.To, tr.Factor)
	}
	return fmt.Sprintf("sync %d: node %d (%s) %s -> %s", tr.Sync, tr.NodeID, tr.Role, tr.From, tr.To)
}

// Cluster is the node population of one job plus its health state.
type Cluster struct {
	cfg   Config
	nodes []*machine.Node
	roles []core.Role
	// caps holds each node's device-class capability; nil on a
	// homogeneous cluster (no Classes configured).
	caps []core.NodeCapability

	// planned lists the node ids the fault plan names, ascending: the
	// only nodes whose health can change, so Advance and Reset visit
	// them alone.
	planned []int
	// trs is Advance's transition scratch, reused across calls.
	trs []Transition

	mu       sync.Mutex
	health   []core.Health
	slow     []float64 // slow factor currently applied to each node
	aliveSim int
	aliveAna int
	// gauged counts, per partition, the degraded nodes the hub's
	// degraded-nodes gauge holds for this cluster: NodeDegraded added
	// them, and no recovery, kill or Settle has removed them yet.
	gauged [2]int
}

// New validates the configuration and builds the node population. The
// fault plan, if any, is checked against the node count and rejected if
// its kills would wipe out an entire partition (the drivers cannot make
// progress with an empty partition, and the allocators return nil).
func New(cfg Config) (*Cluster, error) {
	if cfg.SimNodes <= 0 || cfg.AnaNodes <= 0 {
		return nil, fmt.Errorf("cluster: need positive partition sizes, got sim=%d ana=%d", cfg.SimNodes, cfg.AnaNodes)
	}
	n := cfg.SimNodes + cfg.AnaNodes
	// classes holds the preset of every class the map names, resolved
	// once for the whole population.
	var classes map[string]machine.Class
	if !cfg.Classes.Empty() {
		resolve := func(name string) bool { _, ok := machine.PresetClass(name); return ok }
		if err := cfg.Classes.Validate(n, resolve, machine.PresetNames()); err != nil {
			return nil, err
		}
		classes = make(map[string]machine.Class)
		for _, name := range cfg.Classes.Classes() {
			classes[name], _ = machine.PresetClass(name)
		}
	}
	if cfg.Scales != nil {
		if len(cfg.Scales) != n {
			return nil, fmt.Errorf("cluster: %d node scales for %d nodes", len(cfg.Scales), n)
		}
		for i, s := range cfg.Scales {
			if s <= 0 || s > 1 {
				return nil, fmt.Errorf("cluster: node %d scale %g outside (0, 1]", i, s)
			}
		}
	}
	if err := cfg.Faults.Validate(n); err != nil {
		return nil, err
	}
	var killsSim, killsAna int
	for _, id := range cfg.Faults.Kills() {
		if id < cfg.SimNodes {
			killsSim++
		} else {
			killsAna++
		}
	}
	if killsSim >= cfg.SimNodes {
		return nil, fmt.Errorf("cluster: fault plan kills all %d simulation nodes", cfg.SimNodes)
	}
	if killsAna >= cfg.AnaNodes {
		return nil, fmt.Errorf("cluster: fault plan kills all %d analysis nodes", cfg.AnaNodes)
	}

	runSeed := cfg.RunSeed
	if runSeed == 0 {
		runSeed = cfg.JobSeed
	}
	c := &Cluster{
		cfg:      cfg,
		nodes:    make([]*machine.Node, n),
		roles:    make([]core.Role, n),
		health:   make([]core.Health, n),
		slow:     make([]float64, n),
		aliveSim: cfg.SimNodes,
		aliveAna: cfg.AnaNodes,
	}
	var weights map[string]float64
	if classes != nil {
		c.caps = make([]core.NodeCapability, n)
		weights = map[string]float64{}
	}
	// Unmapped nodes are of the default class, but their capability
	// names them "default", apart from nodes mapped to its "cpu" preset.
	defaultClass := machine.DefaultClass()
	defaultClass.Name = "default"
	for i := 0; i < n; i++ {
		cl := defaultClass
		if name := cfg.Classes.ClassAt(i); name != "" {
			cl = classes[name]
		}
		raplCfg, model, noise := cl.Rapl, cl.Model, cfg.Noise
		if noise != (machine.NoiseModel{}) && cl.Noise != (machine.NoiseModel{}) {
			// A class's own noise profile overrides the run-level one,
			// but a deterministic (zero-noise) run stays deterministic.
			noise = cl.Noise
		}
		if cfg.Scales != nil {
			raplCfg = raplCfg.Scale(cfg.Scales[i])
			model = model.Scale(cfg.Scales[i])
		}
		if c.caps != nil {
			w, ok := weights[cl.Name]
			if !ok {
				w = cl.Weight()
				weights[cl.Name] = w
			}
			c.caps[i] = core.NodeCapability{
				Class:  cl.Name,
				MinCap: raplCfg.MinCap,
				MaxCap: raplCfg.TDP,
				Weight: w,
			}
		}
		c.nodes[i] = machine.NewNodeWithSeeds(i, raplCfg, model, noise, cfg.JobSeed, runSeed)
		if i < cfg.SimNodes {
			c.roles[i] = core.RoleSimulation
		} else {
			c.roles[i] = core.RoleAnalysis
		}
		c.slow[i] = 1
	}
	if cfg.Telemetry != nil {
		c.attach(cfg.Telemetry)
	}
	if !cfg.Faults.Empty() {
		seen := make(map[int]bool)
		for _, e := range cfg.Faults.Events {
			if !seen[e.Node] {
				seen[e.Node] = true
				c.planned = append(c.planned, e.Node)
			}
		}
		sort.Ints(c.planned)
	}
	return c, nil
}

// attach points every node's RAPL telemetry at h. Metrics aggregate
// per partition; the event stream carries one representative node per
// partition.
func (c *Cluster) attach(h *telemetry.Hub) {
	for i, n := range c.nodes {
		eventful := i == 0 || i == c.cfg.SimNodes
		n.RAPL().SetTelemetry(h, c.roles[i].String(), eventful)
	}
}

// SetTelemetry re-attaches the cluster to hub h (nil detaches): every
// node's RAPL site and the lifecycle events and gauges. Degraded nodes
// still counted on the previous hub's gauge are settled there first. A
// pooled driver calls it between runs when the hub changes; the result
// is the cluster New would have built with Telemetry h.
func (c *Cluster) SetTelemetry(h *telemetry.Hub) {
	c.mu.Lock()
	c.settleLocked()
	c.cfg.Telemetry = h
	c.mu.Unlock()
	c.attach(h)
}

// Settle removes the nodes still under a slow excursion from the
// telemetry hub's degraded-nodes gauge, without a NodeRecovered event:
// the run ended (or was cancelled) with them degraded, and a gauge of
// nodes running degraded must not count nodes of a finished run. The
// health view is unchanged. Drivers defer it when a run returns;
// calling it again, or before Reset, is harmless.
func (c *Cluster) Settle() {
	c.mu.Lock()
	c.settleLocked()
	c.mu.Unlock()
}

// settleLocked is Settle with c.mu held.
func (c *Cluster) settleLocked() {
	for r, n := range c.gauged {
		if n > 0 {
			c.cfg.Telemetry.DegradedSettled(core.Role(r).String(), n)
		}
		c.gauged[r] = 0
	}
}

// Reset returns the cluster to its just-built state for pooled episode
// reuse: every node rewinds (RAPL domain, jitter stream, slow factor,
// busy/idle accounting) and the health view returns to all-alive. The
// seed-derived node skews and the class capability table are immutable
// and survive, so a reset cluster replays exactly the behaviour of a
// freshly constructed one with the same Config.
func (c *Cluster) Reset() {
	c.mu.Lock()
	c.settleLocked()
	for _, i := range c.planned {
		c.health[i] = core.Healthy
		c.slow[i] = 1
	}
	c.aliveSim, c.aliveAna = c.cfg.SimNodes, c.cfg.AnaNodes
	c.mu.Unlock()
	for _, n := range c.nodes {
		n.Reset()
	}
}

// Size returns the total node count.
func (c *Cluster) Size() int { return len(c.nodes) }

// Node returns node i's machine.
func (c *Cluster) Node(i int) *machine.Node { return c.nodes[i] }

// Role returns node i's partition role.
func (c *Cluster) Role(i int) core.Role { return c.roles[i] }

// Capability returns node i's device-class capability; the zero value
// on a homogeneous cluster, which the allocators read as weight 1 with
// the global clamp range.
func (c *Cluster) Capability(i int) core.NodeCapability {
	if c.caps == nil {
		return core.NodeCapability{}
	}
	return c.caps[i]
}

// CapabilityFn returns a lookup suitable for polimer.Options: nil on
// a homogeneous cluster (so the rank-parallel path stays untouched),
// the Capability accessor otherwise. The capability table is immutable
// after New, so the lookup is safe from any rank goroutine.
func (c *Cluster) CapabilityFn() func(int) core.NodeCapability {
	if c.caps == nil {
		return nil
	}
	return c.Capability
}

// Health returns node i's current health.
func (c *Cluster) Health(i int) core.Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.health[i]
}

// Alive reports whether node i is not Dead.
func (c *Cluster) Alive(i int) bool { return c.Health(i).Alive() }

// AliveCounts returns the partitions' live sizes.
func (c *Cluster) AliveCounts() (sim, ana int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aliveSim, c.aliveAna
}

// WorkScale returns the factor by which each surviving node's share of
// the partition's (fixed, domain-decomposed) work grows after kills:
// configured size over live size. It returns 1 for a full partition.
func (c *Cluster) WorkScale(role core.Role) float64 {
	sim, ana := c.AliveCounts()
	configured, alive := c.cfg.SimNodes, sim
	if role == core.RoleAnalysis {
		configured, alive = c.cfg.AnaNodes, ana
	}
	if alive <= 0 || alive == configured {
		return 1
	}
	return float64(configured) / float64(alive)
}

// Measure fills the identity, health and cap fields of a NodeMeasure
// for node i. Dead nodes report zero cap (and callers leave the time
// and power fields zero), the convention the allocators rely on to
// avoid re-injecting a corpse's stale cap into the budget pool.
func (c *Cluster) Measure(i int) core.NodeMeasure {
	h := c.Health(i)
	m := core.NodeMeasure{NodeID: i, Health: h, Role: c.roles[i]}
	if h.Alive() {
		m.Cap = c.nodes[i].RAPL().LongCap()
	}
	if c.caps != nil {
		m.NodeCapability = c.caps[i]
	}
	return m
}

// Advance applies the fault plan cluster-wide for the given 1-based
// synchronization index (the sequential driver's path, called at the
// top of each interval: an event planned for sync k is in force before
// interval k executes). It visits only the nodes the plan names and
// returns the transitions fired, in node order, or nil when none fired.
// The returned slice is scratch, valid until the next Advance.
func (c *Cluster) Advance(t units.Seconds, sync int) []Transition {
	c.trs = c.trs[:0]
	for _, i := range c.planned {
		if tr, ok := c.apply(i, t, sync); ok {
			c.trs = append(c.trs, tr)
		}
	}
	if len(c.trs) == 0 {
		return nil
	}
	return c.trs
}

// Apply applies the fault plan for one node (the rank-parallel path:
// each rank calls it for its own node right before PowerAlloc). It
// returns the transitions fired and whether the node is now dead.
func (c *Cluster) Apply(id int, t units.Seconds, sync int) ([]Transition, bool) {
	var trs []Transition
	if tr, ok := c.apply(id, t, sync); ok {
		trs = []Transition{tr}
	}
	return trs, !c.Alive(id)
}

// apply advances one node's health to the plan's state at sync and
// reports the transition, if one fired.
func (c *Cluster) apply(id int, t units.Seconds, sync int) (Transition, bool) {
	plan := c.cfg.Faults
	if plan.Empty() {
		return Transition{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.health[id] == core.Dead {
		return Transition{}, false
	}
	role := c.roles[id]
	if ks := plan.KillSync(id); ks != 0 && sync >= ks {
		from := c.health[id]
		if from == core.Degraded {
			// The excursion ends with the node: keep the degraded gauge
			// consistent before counting the kill.
			c.gauged[role]--
			c.cfg.Telemetry.NodeRecovered(float64(t), id, role.String(), sync)
		}
		c.health[id] = core.Dead
		c.slow[id] = 1
		if role == core.RoleSimulation {
			c.aliveSim--
		} else {
			c.aliveAna--
		}
		c.cfg.Telemetry.NodeKilled(float64(t), id, role.String(), sync, c.aliveSim, c.aliveAna)
		return Transition{NodeID: id, Role: role, From: from, To: core.Dead, Factor: 1, Sync: sync, T: t}, true
	}
	f := plan.SlowFactor(id, sync)
	if f == c.slow[id] {
		return Transition{}, false
	}
	from := c.health[id]
	c.slow[id] = f
	c.nodes[id].SetSlowFactor(f)
	if f == 1 {
		c.health[id] = core.Healthy
		c.gauged[role]--
		c.cfg.Telemetry.NodeRecovered(float64(t), id, role.String(), sync)
		return Transition{NodeID: id, Role: role, From: from, To: core.Healthy, Factor: 1, Sync: sync, T: t}, true
	}
	c.health[id] = core.Degraded
	if from == core.Healthy {
		c.gauged[role]++
		c.cfg.Telemetry.NodeDegraded(float64(t), id, role.String(), sync, f)
	}
	// A factor change inside an excursion (overlapping windows) is
	// recorded in the transition log but not re-counted by telemetry.
	return Transition{NodeID: id, Role: role, From: from, To: core.Degraded, Factor: f, Sync: sync, T: t}, true
}
