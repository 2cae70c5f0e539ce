// Package polimer reimplements the PoLiMER application-level power
// management library the paper extends (Marincic et al., E2SC'17): power
// monitoring and capping for distributed message-passing applications,
// with the two-call instrumentation interface of Section IV-B / VI-C:
//
//	mgr := polimer.Init(rank, world, role, node, opts)  // poli_init_power_manager
//	...
//	mgr.PowerAlloc()                                    // poli_power_alloc, before each sync
//
// Init supplies the application knowledge SeeSAw needs — each process's
// identity as simulation or analysis and its initial power cap — and
// PowerAlloc is invoked by every rank immediately before a
// simulation/analysis synchronization.
//
// Measurement semantics follow Section VI-B: one monitor rank per node;
// partition time is the slowest rank's interval time (including the time
// to perform the previous power allocation); partition power is the sum
// of node power measurements. Internally each PowerAlloc performs an
// Allgather of per-node measurements (this doubles as the rendezvous of
// the synchronization phase), lets the policy rank compute the new
// allocation, broadcasts the caps, and writes them to the local RAPL
// domain.
package polimer

import (
	"fmt"

	"seesaw/internal/core"
	"seesaw/internal/machine"
	"seesaw/internal/mpi"
	"seesaw/internal/telemetry"
	"seesaw/internal/trace"
	"seesaw/internal/units"
)

// Options configures a rank's power manager.
type Options struct {
	// Policy is the allocation policy; only the policy root's instance
	// (world rank 0) is consulted. Must be non-nil on the root.
	Policy core.Policy
	// Constraints carry the global budget and per-node cap range.
	Constraints core.Constraints
	// InitialCap is the per-node cap installed at Init ("power_cap" of
	// poli_init_power_manager). Zero leaves the node uncapped.
	InitialCap units.Watts
	// ShortTermCap additionally installs a short-term RAPL cap at the
	// same value (the "Long and Short" capping mode of Table I).
	ShortTermCap bool
	// Telemetry, when non-nil, receives per-synchronization barrier
	// records and idle-wait observations from this rank, and policy
	// decisions from the root. Nil disables instrumentation at no cost.
	Telemetry *telemetry.Hub
	// Health, when non-nil, reports this rank's node health at each
	// allocation (the cluster layer's view under fault injection); nil
	// means always Healthy.
	Health func() core.Health
	// Capability, when non-nil, resolves a node id to its device-class
	// capability (cluster.CapabilityFn on a heterogeneous cluster).
	// Capability is static cluster configuration the policy root knows
	// a priori, so it is merged into the measurements root-side rather
	// than travelling in the Allgather — the exchange's modeled wire
	// size is unchanged. Nil means a homogeneous cluster.
	Capability func(id int) core.NodeCapability
}

// measure is the per-node record exchanged at each allocation.
type measure struct {
	id     int // stable node id (world rank)
	health core.Health
	role   core.Role
	time   units.Seconds // allocator-to-allocator interval (work + wait)
	busy   units.Seconds // pure work time
	epoch  units.Seconds // loop-level (epoch) view of the interval
	power  units.Watts
	cap    units.Watts
}

// policyRoot is the world rank that runs the policy and broadcasts its
// caps.
const policyRoot = 0

// Manager is the per-rank PoLiMER handle.
type Manager struct {
	rank *mpi.Rank
	comm *mpi.Comm
	role core.Role
	node *machine.Node
	opts Options

	lastClock  units.Seconds
	lastEnergy units.Joules
	prevWait   units.Seconds
	extWait    units.Seconds

	syncStep int
	log      *trace.SyncLog // root only
	overhead units.Seconds  // cumulative allocator overhead (local)

	// idleWaitM is the telemetry handle for this partition's idle-trough
	// histogram, resolved once at Init so PowerAlloc skips the registry's
	// label lookup at every synchronization (nil when telemetry is off).
	idleWaitM *telemetry.Metric
}

// Init creates the rank's power manager and installs the initial cap.
// It mirrors poli_init_power_manager(comm, me, master, power_cap): comm
// and me come from the mpi handle, master is the role, power_cap the
// initial per-node cap.
func Init(rank *mpi.Rank, role core.Role, node *machine.Node, opts Options) (*Manager, error) {
	if node == nil {
		return nil, fmt.Errorf("polimer: nil node")
	}
	if rank.WorldRank() == policyRoot && opts.Policy == nil {
		return nil, fmt.Errorf("polimer: policy required on root rank")
	}
	m := &Manager{
		rank: rank,
		comm: rank.World(),
		role: role,
		node: node,
		opts: opts,
	}
	if opts.Telemetry != nil && rank.WorldRank() == policyRoot && opts.Policy != nil {
		m.opts.Policy = core.Instrument(opts.Policy, opts.Telemetry,
			func() float64 { return float64(rank.Clock()) })
	}
	if opts.InitialCap > 0 {
		node.RAPL().SetLongCap(opts.InitialCap)
		if opts.ShortTermCap {
			node.RAPL().SetShortCap(opts.InitialCap)
		}
	}
	if rank.WorldRank() == policyRoot {
		m.log = &trace.SyncLog{}
	}
	m.idleWaitM = opts.Telemetry.IdleWaitMetric(role.String())
	m.lastClock = rank.Clock()
	m.lastEnergy = node.RAPL().Energy()
	return m, nil
}

// Role returns the rank's partition role.
func (m *Manager) Role() core.Role { return m.role }

// SyncLog returns the per-synchronization record log (nil on non-root
// ranks).
func (m *Manager) SyncLog() *trace.SyncLog { return m.log }

// OverheadTotal returns the cumulative virtual time this rank spent
// inside PowerAlloc (communication + actuation accounting).
func (m *Manager) OverheadTotal() units.Seconds { return m.overhead }

// NoteExternalWait records d seconds the rank spent blocked on
// application communication (e.g. an analysis rank waiting for the
// simulation's frame): the node idles through it (drawing idle power)
// and the span counts as synchronization wait rather than busy time in
// the interval measurements. Callers invoke it right after a blocking
// receive, passing how far the receive advanced the virtual clock.
func (m *Manager) NoteExternalWait(d units.Seconds) {
	if d <= 0 {
		return
	}
	m.node.Idle(d)
	m.extWait += d
}

// PowerAlloc measures the just-completed interval, synchronizes with all
// ranks, runs the policy, and applies new caps. It must be called by
// every rank at each simulation/analysis synchronization point, exactly
// like poli_power_alloc() in the instrumented LAMMPS.
func (m *Manager) PowerAlloc() {
	m.syncStep++
	arrival := m.rank.Clock()

	// Local interval measurement. The interval runs arrival-to-arrival
	// of consecutive allocator calls, so it contains the previous
	// synchronization's wait (charged as idle inside the previous call)
	// plus any noted external waits plus the work — matching PoLiMER's
	// semantics where poli_power_alloc brackets the synchronization.
	dt := arrival - m.lastClock
	e := m.node.RAPL().Energy() - m.lastEnergy
	avgPower := units.AvgPower(e, dt)
	busy := dt - m.extWait - m.prevWait
	if busy < 0 {
		busy = 0
	}
	m.extWait = 0
	health := core.Healthy
	if m.opts.Health != nil {
		health = m.opts.Health()
	}
	my := measure{
		id:     m.rank.WorldRank(),
		health: health,
		role:   m.role,
		time:   dt,
		busy:   busy,
		epoch:  core.EpochTime(busy, dt),
		power:  avgPower,
		cap:    m.node.RAPL().LongCap(),
	}

	// Exchange measurements; this Allgather is also the rendezvous of
	// the synchronization phase, so the wait of the faster partition
	// happens here.
	gathered := m.comm.Allgather(my, 8*4)
	merged := m.rank.Clock()
	exchangeCost := m.rank.Cost().CollectiveCost(m.comm.Size(), 8*4*m.comm.Size())
	m.prevWait = 0
	if wait := merged - arrival - exchangeCost; wait > 0 {
		// The faster ranks idle at the synchronization (the troughs of
		// the paper's Figure 1), drawing idle power.
		m.node.Idle(wait)
		m.prevWait = wait
		if m.idleWaitM != nil {
			m.idleWaitM.Observe(float64(wait))
		}
	}

	// Policy evaluation on the root; everyone receives the caps.
	var caps []units.Watts
	if m.rank.WorldRank() == policyRoot {
		nodes := make([]core.NodeMeasure, len(gathered))
		for i, g := range gathered {
			mm := g.(measure)
			nodes[i] = core.NodeMeasure{NodeID: mm.id, Health: mm.health, Role: mm.role,
				Time: mm.time, BusyTime: mm.busy, EpochTime: mm.epoch, Power: mm.power, Cap: mm.cap}
			if m.opts.Capability != nil {
				nodes[i].NodeCapability = m.opts.Capability(mm.id)
			}
		}
		caps = m.opts.Policy.Allocate(m.syncStep, nodes)
		if m.log != nil {
			rec := trace.NewSyncRecord(m.syncStep, nodes, exchangeCost)
			m.log.Add(rec)
			if m.opts.Telemetry != nil {
				m.opts.Telemetry.SyncBarrier(float64(m.rank.Clock()), rec.Step,
					float64(rec.IntervalTime()), float64(rec.SimTime), float64(rec.AnaTime),
					rec.Slack(), float64(exchangeCost))
			}
		}
	}
	res := m.comm.Bcast(policyRoot, caps, 8*m.comm.Size())
	caps, _ = res.([]units.Watts)

	// Apply this node's new cap, if the policy changed it.
	if caps != nil {
		myCap := caps[m.rank.WorldRank()]
		if myCap > 0 && myCap != m.node.RAPL().LongCap() {
			m.node.RAPL().SetLongCap(myCap)
			if m.opts.ShortTermCap {
				m.node.RAPL().SetShortCap(myCap)
			}
		}
	}

	// The allocator's own cost (the collective exchanges above advanced
	// the virtual clock) is part of the next interval's time, matching
	// the paper's measurement convention. The next interval is measured
	// from this arrival so it includes the synchronization wait charged
	// above.
	m.overhead += (m.rank.Clock() - merged) + exchangeCost
	m.lastClock = arrival
	m.lastEnergy = e + m.lastEnergy // energy at arrival
}
