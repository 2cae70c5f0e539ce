// Package mpi is an in-process message-passing runtime with virtual
// time, standing in for MPI in the paper's software stack. Ranks are
// goroutines; communicators, sub-communicators (Split), collectives
// (Barrier, Allreduce, Bcast, Gather, Allgather) and tagged point-to-point
// messages are supported.
//
// # Virtual time
//
// Every rank carries a virtual clock. Local work advances only the local
// clock (Elapse). Synchronizing operations merge clocks conservatively:
// a collective completes at max(arrival clocks) + modeled communication
// cost, and all participants leave with that clock; a receive completes
// no earlier than the matching send plus the message's flight time. This
// yields deterministic, platform-independent timings: a "1024-node" job
// is simply 1024 goroutines whose clocks interleave exactly as the
// communication structure dictates.
//
// # SPMD discipline
//
// As with real MPI, all members of a communicator must issue the same
// sequence of collective operations. The runtime checks the operation
// name at each rendezvous and panics loudly on mismatches instead of
// deadlocking silently.
//
// # Scale
//
// The runtime is built to stay tractable at 4096+ ranks (see DESIGN.md,
// "Scaling the substrate"). Collectives use a generation-gated, sharded
// rendezvous: arrivals are lock-free (each member writes its own scratch
// slot and decrements an atomic counter), the last arriver reduces and
// publishes, and waiters park on a plain channel receive — never a
// select, whose per-case lock on a shared cancellation channel would
// serialize every park and wake through one lock. Large groups arrive in
// ~sqrt(k) shards: members decrement a per-shard counter and park on a
// per-shard gate; the last member of a shard becomes its leader,
// decrements the group counter and parks at the root; the completing
// rank releases the root, and the woken leaders fan the release out one
// shard gate each, in parallel. The float64 reductions the power stack
// issues on every synchronization take a typed fast path with no
// interface boxing and a single result copy per rank. Mailboxes index
// messages by (source, tag), so a receive matches in O(1) regardless of
// backlog and a send wakes at most the one receiver waiting on that
// pair.
package mpi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"seesaw/internal/telemetry"
	"seesaw/internal/units"
)

// CostModel parameterizes communication timing.
type CostModel struct {
	// CollectiveLatency is the per-tree-hop latency of collectives.
	CollectiveLatency units.Seconds
	// P2PLatency is the flight latency of a point-to-point message.
	P2PLatency units.Seconds
	// SecondsPerByte converts payload size to transfer time.
	SecondsPerByte float64
}

// DefaultCost returns a cost model loosely calibrated to the Cray Aries
// interconnect of Theta: a few microseconds per hop, ~10 GB/s effective
// per-link bandwidth.
func DefaultCost() CostModel {
	return CostModel{
		CollectiveLatency: 1.5e-6,
		P2PLatency:        2.0e-6,
		SecondsPerByte:    1.0e-10,
	}
}

// CollectiveCost returns the modeled duration of a collective over k
// ranks moving the given payload bytes (log-tree algorithm).
func (c CostModel) CollectiveCost(k, bytes int) units.Seconds {
	if k <= 1 {
		return 0
	}
	hops := math.Ceil(math.Log2(float64(k)))
	per := float64(c.CollectiveLatency) + float64(bytes)*c.SecondsPerByte
	return units.Seconds(hops * per)
}

// P2PCost returns the modeled flight time of a point-to-point message.
func (c CostModel) P2PCost(bytes int) units.Seconds {
	return c.P2PLatency + units.Seconds(float64(bytes)*c.SecondsPerByte)
}

// Runtime hosts one job's ranks and mailboxes.
type Runtime struct {
	size int
	cost CostModel
	tel  *telemetry.Hub

	mail []*mailbox

	// waitMetrics caches the per-op rendezvous-wait histogram handles so
	// the hot path skips the registry's label lookup (and its lock) on
	// every collective.
	waitMetrics sync.Map // op string -> *telemetry.Metric

	// Cancellation state. cancelErr is written once, under cancelMu,
	// before cancelled is set; it is read only after observing cancelled.
	// ranks lets doCancel reach every rank's parked-gate pointer; it is
	// fully populated before the rank goroutines start.
	cancelled atomic.Bool
	cancelMu  sync.Mutex
	cancelErr error
	ranks     []*Rank
}

// errCanceled is the sentinel panic value that unwinds rank goroutines
// blocked in Recv or a collective when the run's context is cancelled.
// The rank wrapper recognizes it and does not report it as a rank panic.
var errCanceled = errors.New("mpi: run cancelled")

// isCancelled reports whether the run has been cancelled.
func (rt *Runtime) isCancelled() bool { return rt.cancelled.Load() }

// doCancel marks the runtime cancelled and wakes every goroutine blocked
// on a mailbox or a collective rendezvous. The flag is set first; then
// every rank's parked gate (published by arrive just before it blocks)
// is force-opened — a CAS per gate arbitrates with a concurrently
// completing collective — and every mailbox receives a wake token. A
// rank rechecks the flag after publishing its gate and after every
// mailbox wake, so either this walk observes the gate pointer, or the
// rank's store came later in the seq-cst order than the walk's load —
// in which case the flag store before the walk is visible to the
// recheck and the rank unwinds instead of parking. Tracking parked
// ranks (a fixed-size array) rather than a group registry also means
// Split products are garbage-collected as usual instead of being
// pinned for the life of the run.
func (rt *Runtime) doCancel(err error) {
	if err == nil {
		err = context.Canceled
	}
	rt.cancelMu.Lock()
	already := rt.cancelErr != nil
	if !already {
		rt.cancelErr = err
	}
	rt.cancelMu.Unlock()
	if already {
		return
	}
	rt.cancelled.Store(true)
	for _, r := range rt.ranks {
		if g := r.parked.Load(); g != nil {
			g.release()
		}
		if g := r.condG.Load(); g != nil {
			// The waiter publishes condG while holding g.mu and only
			// then enqueues on the cond (Wait enqueues before releasing
			// the lock), so taking the lock here orders this broadcast
			// after the enqueue: either the waiter is woken, or its
			// pre-wait flag recheck already saw cancelled.
			g.mu.Lock()
			g.cond.Broadcast()
			g.mu.Unlock()
		}
	}
	for _, mb := range rt.mail {
		select {
		case mb.wake <- struct{}{}:
		default:
		}
	}
}

// waitMetric returns the cached telemetry handle for one collective op's
// rendezvous-wait histogram (nil when telemetry is disabled).
func (rt *Runtime) waitMetric(op string) *telemetry.Metric {
	if rt.tel == nil {
		return nil
	}
	if m, ok := rt.waitMetrics.Load(op); ok {
		return m.(*telemetry.Metric)
	}
	m := rt.tel.RendezvousWaitMetric(op)
	rt.waitMetrics.Store(op, m)
	return m
}

// message is a point-to-point payload in flight.
type message struct {
	payload any
	arrive  units.Seconds // earliest virtual time the receiver may own it
}

// pairKey identifies one (source rank, tag) message stream.
type pairKey struct {
	src, tag int
}

// msgQueue holds one (src, tag) stream's undelivered messages in FIFO
// order. head indexes the next message, so delivery is O(1) and the
// backing array is reused once drained.
type msgQueue struct {
	msgs []message
	head int
	// waiting marks the mailbox owner as parked on this stream; a sender
	// appending here wakes it through the mailbox's wake channel.
	waiting bool
}

// mailbox is one rank's incoming message store, indexed by (src, tag) so
// a receive matches without scanning unrelated backlog.
type mailbox struct {
	mu     sync.Mutex
	queues map[pairKey]*msgQueue
	// wake is the owner's parking token (capacity 1). A rank blocks on at
	// most one (src, tag) stream at a time, so one channel per mailbox
	// suffices and senders to other streams never signal it.
	wake chan struct{}
}

func newMailbox() *mailbox {
	return &mailbox{
		queues: make(map[pairKey]*msgQueue),
		wake:   make(chan struct{}, 1),
	}
}

// queue returns the stream for key, creating it on first use.
func (mb *mailbox) queue(key pairKey) *msgQueue {
	q := mb.queues[key]
	if q == nil {
		q = &msgQueue{}
		mb.queues[key] = q
	}
	return q
}

// Rank is the per-goroutine handle to the runtime: a world rank id, a
// virtual clock and the world communicator.
type Rank struct {
	rt    *Runtime
	id    int
	clock units.Seconds
	world *Comm

	// parked publishes the rendezvous gate this rank is about to block
	// on, so doCancel can force it open. Only this rank stores it; the
	// pointer is per-rank, so the two stores bracketing a park never
	// contend.
	parked atomic.Pointer[gate]

	// condG publishes the group whose condition variable this rank is
	// waiting on (the unsharded rendezvous path), so doCancel can
	// broadcast it — the cond-path analogue of parked, keeping
	// cancellation registry-free.
	condG atomic.Pointer[group]
}

// Run executes body on n concurrent ranks and blocks until all return.
// A panic on any rank is captured and returned as an error naming the
// rank. All clocks start at zero.
func Run(n int, cost CostModel, body func(r *Rank)) error {
	return RunContext(context.Background(), n, cost, nil, body)
}

// RunWithTelemetry is Run with a telemetry hub attached to the runtime:
// collective rendezvous waits and point-to-point message counts are
// reported to it. A nil hub is equivalent to Run.
func RunWithTelemetry(n int, cost CostModel, tel *telemetry.Hub, body func(r *Rank)) error {
	return RunContext(context.Background(), n, cost, tel, body)
}

// RunContext is RunWithTelemetry under a context: when ctx is cancelled,
// ranks blocked in Recv or a collective unwind promptly (via an internal
// sentinel panic the runtime recognizes), ranks doing local work abort
// at their next communication, and RunContext returns ctx.Err(). A rank
// panic unrelated to cancellation still wins over the context error.
func RunContext(ctx context.Context, n int, cost CostModel, tel *telemetry.Hub, body func(r *Rank)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return fmt.Errorf("mpi: rank count must be positive, got %d", n)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	rt := &Runtime{
		size: n,
		cost: cost,
		tel:  tel,
		mail: make([]*mailbox, n),
	}
	for i := range rt.mail {
		rt.mail[i] = newMailbox()
	}
	worldGroup := newGroup(identity(n))
	rt.ranks = make([]*Rank, n)
	for i := range rt.ranks {
		rank := &Rank{rt: rt, id: i}
		rank.world = &Comm{rank: rank, group: worldGroup, myRank: i}
		rt.ranks[i] = rank
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if err, ok := r.(error); ok && errors.Is(err, errCanceled) {
						return // orderly unwind, not a rank failure
					}
					errs[id] = fmt.Errorf("mpi: rank %d panicked: %v", id, r)
				}
			}()
			body(rt.ranks[id])
		}(i)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	watcher := make(chan struct{})
	go func() {
		defer close(watcher)
		select {
		case <-ctx.Done():
			rt.doCancel(ctx.Err())
		case <-done:
		}
	}()
	<-done
	<-watcher

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if rt.isCancelled() {
		rt.cancelMu.Lock()
		defer rt.cancelMu.Unlock()
		return rt.cancelErr
	}
	return nil
}

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// WorldRank returns the rank's id in the world communicator.
func (r *Rank) WorldRank() int { return r.id }

// Cost returns the runtime's communication cost model, so higher layers
// can account modeled communication costs explicitly.
func (r *Rank) Cost() CostModel { return r.rt.cost }

// WorldSize returns the job's total rank count.
func (r *Rank) WorldSize() int { return r.rt.size }

// World returns the world communicator.
func (r *Rank) World() *Comm { return r.world }

// Clock returns the rank's current virtual time.
func (r *Rank) Clock() units.Seconds { return r.clock }

// Elapse advances the local clock by d (local computation).
func (r *Rank) Elapse(d units.Seconds) {
	if d < 0 {
		panic("mpi: negative elapse")
	}
	r.clock += d
}

// AdvanceTo moves the local clock forward to t if t is later.
func (r *Rank) AdvanceTo(t units.Seconds) {
	if t > r.clock {
		r.clock = t
	}
}

// Fail aborts the whole job with err, modelling a fatal node failure:
// in MPI a dead rank takes the job down, since every collective it
// belongs to can no longer complete. All other ranks — including ones
// blocked in Recv or mid-collective — unwind promptly through the
// cancellation machinery, and RunContext returns err. Fail does not
// return.
func (r *Rank) Fail(err error) {
	if err == nil {
		err = fmt.Errorf("mpi: rank %d failed", r.id)
	}
	r.rt.doCancel(err)
	panic(errCanceled)
}

// Send delivers a payload of the given modeled size to dst (world rank)
// with a tag. The send is buffered: the sender continues immediately,
// paying only the injection latency locally. The deposit is O(1) into
// the (src, tag) stream, and only a receiver already parked on exactly
// that stream is woken.
func (r *Rank) Send(dst, tag int, payload any, bytes int) {
	if dst < 0 || dst >= r.rt.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	flight := r.rt.cost.P2PCost(bytes)
	msg := message{payload: payload, arrive: r.clock + flight}
	mb := r.rt.mail[dst]
	mb.mu.Lock()
	q := mb.queue(pairKey{src: r.id, tag: tag})
	q.msgs = append(q.msgs, msg)
	notify := q.waiting
	q.waiting = false
	mb.mu.Unlock()
	if notify {
		select {
		case mb.wake <- struct{}{}:
		default:
		}
	}
	// Injection overhead on the sender side.
	r.clock += r.rt.cost.P2PLatency
	r.rt.tel.MessageSent(bytes)
}

// Recv blocks until a message from src with the given tag is available,
// advances the clock to the message's arrival time, and returns the
// payload.
func (r *Rank) Recv(src, tag int) any {
	mb := r.rt.mail[r.id]
	mb.mu.Lock()
	q := mb.queue(pairKey{src: src, tag: tag})
	for {
		if q.head < len(q.msgs) {
			m := q.msgs[q.head]
			q.msgs[q.head] = message{} // release the payload reference
			q.head++
			if q.head == len(q.msgs) {
				q.msgs = q.msgs[:0]
				q.head = 0
			}
			mb.mu.Unlock()
			r.AdvanceTo(m.arrive)
			return m.payload
		}
		if r.rt.isCancelled() {
			mb.mu.Unlock()
			panic(errCanceled)
		}
		q.waiting = true
		mb.mu.Unlock()
		// A plain receive, not a select: cancellation deposits a token in
		// every mailbox's wake channel after setting the flag, and the loop
		// rechecks the flag on every pass, so no shared cancel channel is
		// locked on the park/unpark path.
		<-mb.wake
		mb.mu.Lock()
		q.waiting = false
	}
}

// gate is a one-shot release point: waiters park on a plain channel
// receive, and release arbitrates the close between a completing
// collective and a concurrent cancellation with one CAS.
type gate struct {
	ch     chan struct{}
	closed atomic.Bool
}

func newGate() gate { return gate{ch: make(chan struct{})} }

func (g *gate) release() {
	if g.closed.CompareAndSwap(false, true) {
		close(g.ch)
	}
}

// rendezvousState is the publication side of one collective generation:
// the last arriver fills it, sets completed and releases the gates;
// waiters read it afterwards. A gate released without completed set
// means the run was cancelled mid-collective. A fresh state per
// generation keeps late readers safe while the group's arrival scratch
// is already being reused by the next collective.
type rendezvousState struct {
	completed atomic.Bool
	result    any       // untyped collectives
	floats    []float64 // typed float64 reductions
	resClock  units.Seconds
	// poisoned carries a collective-mismatch or reduce-failure message;
	// every member panics with it instead of hanging.
	poisoned string

	// root releases shard leaders (or, in small groups, every member);
	// shards[i] releases shard i's non-leader members.
	root   gate
	shards []gate
}

// shardCounter is a cache-line-padded arrival counter, one per shard, so
// concurrent decrements from different shards never bounce a line.
type shardCounter struct {
	n atomic.Int64
	_ [56]byte
}

// group is the shared state of a communicator: its members and the
// rendezvous scratch used by collectives.
//
// Arrival is lock-free: member i writes only slot i of the scratch
// arrays and then decrements an atomic counter; the member that observes
// zero proceeds up the tree, and the atomic counters order every slot
// write before its reads (the sync.WaitGroup pattern). In groups of
// 2048+ (shardSizeFor) the counters form a two-level tree of ~sqrt(k)
// shards: the last arriver of a shard is its leader and decrements the
// group counter; the last leader is the completer. The completer
// reduces, publishes into the current rendezvousState, re-arms the group
// for the next generation and releases the root gate; woken leaders
// re-arm and release their shard gates in parallel, so neither the
// arrival CASes nor the wakeup channel locks serialize 4096 ranks
// through one word.
type group struct {
	// Unsharded groups (shardPending == nil) rendezvous under a plain
	// mutex + condition variable with a generation counter: below the
	// sharding threshold the wakeup fan-out fits one broadcast, and
	// reusing the group as the publication site makes a
	// small-communicator collective allocation-free (no per-generation
	// state or gate). The running op/bytes/clock fold replaces the
	// completer's scan over per-member arrays; inputs/floats stay
	// per-slot because reduction order is part of the determinism
	// contract. poisoned is sticky: a mismatched or panicking collective
	// fails every later arrival too. These fields lead the struct so an
	// arrival's whole critical section touches the cache lines the lock
	// acquisition already pulled in.
	mu           sync.Mutex
	count        int
	gen          uint64
	condOp       string
	condBytes    int
	condClock    units.Seconds
	cond         *sync.Cond
	inputs       []any
	floats       [][]float64
	members      []int // world ids, ordered by rank-in-group
	condRes      any
	condFloats   []float64
	condResClock units.Seconds
	poisoned     string

	// shardSize is the member count per shard (== len(members) when the
	// group is too small to shard; shardPending is nil then and pending
	// counts ranks instead of shards).
	shardSize    int
	pending      atomic.Int64
	shardPending []shardCounter

	ops    []string
	clocks []units.Seconds
	bytes  []int

	// cur is the in-progress generation. Only the completer of the
	// previous generation stores it, before releasing that generation's
	// gates; doCancel loads it to force the gates open.
	cur atomic.Pointer[rendezvousState]
}

// shardSizeFor picks the arrival-tree fan-in for a k-member group:
// roughly sqrt(k), rounded to a power of two. Below 2048 members the
// extra tree level costs more than the wakeup fan-out it spreads — a
// single root gate both arrives and releases faster (measured: the
// sharded tree was 0.93–0.98x of the seed at 256–1024 ranks, the single
// gate 1.2–1.3x) — so only the largest groups shard.
func shardSizeFor(k int) int {
	if k < 2048 {
		return k
	}
	return 1 << ((bits.Len(uint(k-1)) + 1) / 2)
}

// shardLen returns shard s's member count (the last shard may be short).
func (g *group) shardLen(s int) int {
	lo := s * g.shardSize
	hi := lo + g.shardSize
	if hi > len(g.members) {
		hi = len(g.members)
	}
	return hi - lo
}

// newState allocates the next generation's gates matching the group's
// shard layout.
func (g *group) newState() *rendezvousState {
	st := &rendezvousState{root: newGate()}
	if n := len(g.shardPending); n > 0 {
		st.shards = make([]gate, n)
		for i := range st.shards {
			st.shards[i] = newGate()
		}
	}
	return st
}

func newGroup(members []int) *group {
	k := len(members)
	g := &group{
		members: members,
		inputs:  make([]any, k),
		floats:  make([][]float64, k),
	}
	if size := shardSizeFor(k); size < k {
		g.ops = make([]string, k)
		g.clocks = make([]units.Seconds, k)
		g.bytes = make([]int, k)
		g.shardSize = size
		ns := (k + size - 1) / size
		g.shardPending = make([]shardCounter, ns)
		for s := range g.shardPending {
			g.shardPending[s].n.Store(int64(g.shardLen(s)))
		}
		g.pending.Store(int64(ns))
		g.cur.Store(g.newState())
	} else {
		g.shardSize = k
		g.cond = sync.NewCond(&g.mu)
	}
	return g
}

// Comm is a per-rank handle to a communicator.
type Comm struct {
	rank   *Rank
	group  *group
	myRank int
}

// Rank returns the caller's rank within this communicator.
func (c *Comm) Rank() int { return c.myRank }

// Size returns the communicator's member count.
func (c *Comm) Size() int { return len(c.group.members) }

// WorldRankOf translates a rank in this communicator to a world rank.
func (c *Comm) WorldRankOf(rank int) int { return c.group.members[rank] }

// arrive contributes one member's (opName, payload, clock) to the
// current collective generation and blocks until the last arriver
// publishes, returning that generation's state. Exactly one of
// input/reduce (untyped) or fvals/freduce (typed float64) is used.
func (c *Comm) arrive(opName string, bytes int, input any, fvals []float64,
	reduce func([]any) any, freduce func([][]float64) []float64) *rendezvousState {

	g := c.group
	rt := c.rank.rt
	if rt.isCancelled() {
		panic(errCanceled)
	}
	st := g.cur.Load()
	me := c.myRank
	g.ops[me] = opName
	g.bytes[me] = bytes
	g.clocks[me] = c.rank.clock
	g.inputs[me] = input
	g.floats[me] = fvals

	s := me / g.shardSize
	if g.shardPending[s].n.Add(-1) > 0 {
		c.rank.park(&st.shards[s], st)
	} else if g.pending.Add(-1) > 0 {
		// Shard leader: park at the root, then re-arm this shard's
		// counter and fan the release out through its own gate, so the
		// wakeup storm is spread over ~sqrt(k) channel locks instead of
		// serializing every waiter through one.
		c.rank.park(&st.root, st)
		g.shardPending[s].n.Store(int64(g.shardLen(s)))
		st.shards[s].release()
	} else {
		c.complete(st, reduce, freduce)
		g.shardPending[s].n.Store(int64(g.shardLen(s)))
		st.shards[s].release()
	}
	if st.poisoned != "" {
		panic(st.poisoned)
	}
	return st
}

// arriveCond is the unsharded rendezvous: deposit under the group lock,
// fold the op/bytes/clock on the way in, and either complete (last
// arriver) or wait on the condition variable for the generation to
// advance. It also applies the merged clock and reports the rendezvous
// wait (the cond path's finish), so a collective costs one call frame.
// The returned result and floats are read out under the lock and stay
// valid after it is released, because the next generation cannot
// complete until this rank arrives again; a collective on a small
// communicator therefore allocates nothing per generation.
func (c *Comm) arriveCond(opName string, bytes int, input any, fvals []float64,
	reduce func([]any) any, freduce func([][]float64) []float64) (any, []float64) {

	g := c.group
	r := c.rank
	rt := r.rt
	if rt.isCancelled() {
		panic(errCanceled)
	}
	entryClock := r.clock
	k := len(g.members)
	g.mu.Lock()
	if g.poisoned != "" {
		msg := g.poisoned
		g.mu.Unlock()
		panic(msg)
	}
	if g.count == 0 {
		g.condOp = opName
		g.condBytes = bytes
		g.condClock = r.clock
	} else {
		if g.condOp != opName {
			msg := fmt.Sprintf("mpi: collective mismatch on communicator: %q vs %q", g.condOp, opName)
			g.poisoned = msg
			g.cond.Broadcast()
			g.mu.Unlock()
			panic(msg)
		}
		if bytes > g.condBytes {
			g.condBytes = bytes
		}
		if r.clock > g.condClock {
			g.condClock = r.clock
		}
	}
	if freduce != nil {
		g.floats[c.myRank] = fvals
	} else {
		g.inputs[c.myRank] = input
	}
	g.count++
	if g.count == k {
		g.condResClock = g.condClock + rt.cost.CollectiveCost(k, g.condBytes)
		// A panicking reduce (malformed collective arguments) must poison
		// the group so waiters abort instead of hanging.
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					g.poisoned = fmt.Sprint(rec)
				}
			}()
			if freduce != nil {
				g.condFloats = freduce(g.floats[:k])
			} else {
				g.condRes = reduce(g.inputs[:k])
			}
		}()
		g.count = 0
		g.gen++
		res, fl, clk := g.condRes, g.condFloats, g.condResClock
		poison := g.poisoned
		g.cond.Broadcast()
		g.mu.Unlock()
		if poison != "" {
			panic(poison)
		}
		c.condFinish(opName, entryClock, clk)
		return res, fl
	}
	myGen := g.gen
	// Publish the wait target for doCancel, then recheck the flag: the
	// store and the load are both sequentially consistent, so either the
	// cancel walk sees the pointer (and its broadcast, taken under g.mu,
	// lands after Wait has enqueued this goroutine), or this recheck
	// sees the flag and unwinds instead of waiting. The pointer is left
	// published after the wait — a stale broadcast wakes nobody — so the
	// common case of re-waiting on the same group skips both stores.
	if r.condG.Load() != g {
		r.condG.Store(g)
	}
	for g.gen == myGen && g.poisoned == "" && !rt.isCancelled() {
		g.cond.Wait()
	}
	if g.poisoned != "" {
		msg := g.poisoned
		g.mu.Unlock()
		panic(msg)
	}
	if g.gen == myGen {
		// Cancelled before the generation completed.
		g.mu.Unlock()
		panic(errCanceled)
	}
	res, fl, clk := g.condRes, g.condFloats, g.condResClock
	g.mu.Unlock()
	c.condFinish(opName, entryClock, clk)
	return res, fl
}

// condFinish applies a completed cond-path collective's merged clock and
// reports the rendezvous wait, inline-cheap when telemetry is off.
func (c *Comm) condFinish(opName string, entryClock, resClock units.Seconds) {
	r := c.rank
	if resClock > r.clock {
		r.clock = resClock
	}
	if r.rt.tel != nil {
		if wait := r.clock - entryClock; wait > 0 {
			if m := r.rt.waitMetric(opName); m != nil {
				m.Observe(float64(wait))
			}
		}
	}
}

// park publishes the gate this rank is about to block on, rechecks the
// cancellation flag, blocks, and verifies the generation genuinely
// completed. The recheck after the store is what closes the
// check-then-park window: if doCancel's walk ran before the store, its
// flag store is seq-cst-before this load and the rank unwinds instead
// of parking on a gate nobody will open; otherwise the walk sees the
// pointer and opens the gate. A gate opened by cancellation rather than
// by a completing collective leaves completed unset, and the rank
// unwinds then too.
func (r *Rank) park(g *gate, st *rendezvousState) {
	r.parked.Store(g)
	if r.rt.isCancelled() {
		r.parked.Store(nil)
		panic(errCanceled)
	}
	<-g.ch
	r.parked.Store(nil)
	if !st.completed.Load() {
		panic(errCanceled)
	}
}

// complete is the completer's half of the rendezvous: verify the SPMD
// op discipline, merge clocks, charge the modeled cost, reduce, re-arm
// the group scratch for the next generation and release the root gate.
// (The caller releases the completer's own shard, if any.)
func (c *Comm) complete(st *rendezvousState, reduce func([]any) any, freduce func([][]float64) []float64) {
	g := c.group
	k := len(g.members)
	op := g.ops[0]
	for i := 1; i < k; i++ {
		if g.ops[i] != op {
			st.poisoned = fmt.Sprintf("mpi: collective mismatch on communicator: %q vs %q", op, g.ops[i])
			break
		}
	}
	var maxClock units.Seconds
	maxBytes := 0
	for i := 0; i < k; i++ {
		if g.clocks[i] > maxClock {
			maxClock = g.clocks[i]
		}
		if g.bytes[i] > maxBytes {
			maxBytes = g.bytes[i]
		}
	}
	st.resClock = maxClock + c.rank.rt.cost.CollectiveCost(k, maxBytes)
	if st.poisoned == "" {
		// A panicking reduce (malformed collective arguments) must poison
		// the group so waiters abort instead of hanging.
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					st.poisoned = fmt.Sprint(rec)
				}
			}()
			if freduce != nil {
				st.floats = freduce(g.floats[:k])
			} else {
				st.result = reduce(g.inputs[:k])
			}
		}()
	}
	// Re-arm before the release: woken members may immediately start the
	// next collective on this group, and they must find a fresh state and
	// a full pending count. The gate release orders these writes before
	// any waiter's next arrival. (Shard counters are re-armed by each
	// shard's leader before it releases that shard.)
	g.cur.Store(g.newState())
	if g.shardPending != nil {
		g.pending.Store(int64(len(g.shardPending)))
	} else {
		g.pending.Store(int64(k))
	}
	st.completed.Store(true)
	st.root.release()
}

// finish applies a completed collective's clock to the rank and reports
// the rendezvous wait, returning when the rank owns the merged clock.
func (c *Comm) finish(opName string, resClock units.Seconds) {
	r := c.rank
	arrival := r.clock
	if resClock > r.clock {
		r.clock = resClock
	}
	if r.rt.tel != nil {
		if wait := r.clock - arrival; wait > 0 {
			if m := r.rt.waitMetric(opName); m != nil {
				m.Observe(float64(wait))
			}
		}
	}
}

// rendezvous runs one lockstep collective over boxed payloads: every
// member contributes (opName, input, payload bytes); the last arriver
// reduces and publishes; all leave with the merged clock. The cost model
// charges a log-tree traversal over the max payload size.
func (c *Comm) rendezvous(opName string, input any, bytes int, reduce func(inputs []any) any) any {
	if len(c.group.members) == 1 {
		// Single-member communicator: the operation is local.
		if c.rank.rt.isCancelled() {
			panic(errCanceled)
		}
		return reduce([]any{input})
	}
	if c.group.shardPending == nil {
		res, _ := c.arriveCond(opName, bytes, input, nil, reduce, nil)
		return res
	}
	st := c.arrive(opName, bytes, input, nil, reduce, nil)
	c.finish(opName, st.resClock)
	return st.result
}

// rendezvousFloats is the typed fast path for the float64 reductions the
// power stack issues on every synchronization: no interface boxing, no
// defensive input copy (the contributing slice is only read before the
// generation completes, while its owner is still blocked), and a single
// result copy per rank.
func (c *Comm) rendezvousFloats(opName string, vals []float64, freduce func([][]float64) []float64) []float64 {
	if len(c.group.members) == 1 {
		if c.rank.rt.isCancelled() {
			panic(errCanceled)
		}
		return freduce([][]float64{vals})
	}
	if c.group.shardPending == nil {
		_, fl := c.arriveCond(opName, 8*len(vals), nil, vals, nil, freduce)
		return append([]float64(nil), fl...)
	}
	st := c.arrive(opName, 8*len(vals), nil, vals, nil, freduce)
	out := append([]float64(nil), st.floats...)
	c.finish(opName, st.resClock)
	return out
}

// sumFloats element-wise sums the members' slices in rank order (the
// float addition order is part of the determinism contract).
func sumFloats(inputs [][]float64) []float64 {
	out := make([]float64, len(inputs[0]))
	for _, xs := range inputs {
		if len(xs) != len(out) {
			panic("mpi: allreduce length mismatch")
		}
		for i, x := range xs {
			out[i] += x
		}
	}
	return out
}

// maxFloats element-wise maxes the members' slices.
func maxFloats(inputs [][]float64) []float64 {
	out := append([]float64(nil), inputs[0]...)
	for _, xs := range inputs[1:] {
		if len(xs) != len(out) {
			panic("mpi: allreduce length mismatch")
		}
		for i, x := range xs {
			if x > out[i] {
				out[i] = x
			}
		}
	}
	return out
}

// minFloats element-wise mins the members' slices.
func minFloats(inputs [][]float64) []float64 {
	out := append([]float64(nil), inputs[0]...)
	for _, xs := range inputs[1:] {
		if len(xs) != len(out) {
			panic("mpi: allreduce length mismatch")
		}
		for i, x := range xs {
			if x < out[i] {
				out[i] = x
			}
		}
	}
	return out
}

// Barrier blocks until all members arrive; all leave at the merged
// clock plus the collective cost.
func (c *Comm) Barrier() {
	c.rendezvous("barrier", nil, 8, func([]any) any { return nil })
}

// AllreduceSum element-wise sums float64 slices across members. All
// slices must have equal length.
func (c *Comm) AllreduceSum(vals []float64) []float64 {
	return c.rendezvousFloats("allreduce-sum", vals, sumFloats)
}

// AllreduceMax element-wise maxes float64 slices across members.
func (c *Comm) AllreduceMax(vals []float64) []float64 {
	return c.rendezvousFloats("allreduce-max", vals, maxFloats)
}

// AllreduceMin element-wise mins float64 slices across members.
func (c *Comm) AllreduceMin(vals []float64) []float64 {
	return c.rendezvousFloats("allreduce-min", vals, minFloats)
}

// Bcast distributes root's payload (of modeled size bytes) to all
// members; every caller returns the root's payload.
func (c *Comm) Bcast(root int, payload any, bytes int) any {
	if root < 0 || root >= c.Size() {
		panic(fmt.Sprintf("mpi: bcast root %d out of range", root))
	}
	return c.rendezvous("bcast", payload, bytes, func(inputs []any) any {
		return inputs[root]
	})
}

// Allgather collects every member's payload; index i of the result is
// rank i's contribution.
func (c *Comm) Allgather(payload any, bytes int) []any {
	res := c.rendezvous("allgather", payload, bytes*c.Size(), func(inputs []any) any {
		return append([]any(nil), inputs...)
	})
	return res.([]any)
}

// Gather collects payloads at root; root receives the full slice, other
// ranks receive nil. (All ranks still synchronize, matching MPI_Gather's
// completion semantics under the conservative clock model.)
func (c *Comm) Gather(root int, payload any, bytes int) []any {
	res := c.rendezvous("gather", payload, bytes, func(inputs []any) any {
		return append([]any(nil), inputs...)
	})
	if c.myRank != root {
		return nil
	}
	return res.([]any)
}

// splitKey carries one rank's Split contribution.
type splitKey struct {
	color, key, world, rank int
}

// splitColor is one color's result of a Split: its contributions sorted
// by (key, old rank) and the group they form.
type splitColor struct {
	sks   []splitKey
	group *group
}

// sortSplitKeys orders one color's contributions by (key, old rank),
// mirroring MPI_Comm_split's rank ordering.
func sortSplitKeys(sks []splitKey) {
	sort.Slice(sks, func(i, j int) bool {
		if sks[i].key != sks[j].key {
			return sks[i].key < sks[j].key
		}
		return sks[i].rank < sks[j].rank
	})
}

// buildSplitGroup turns a sorted color bucket into a group.
func buildSplitGroup(sks []splitKey) *group {
	members := make([]int, len(sks))
	for i, sk := range sks {
		members[i] = sk.world
	}
	return newGroup(members)
}

// splitRankIn locates (key, oldRank) in a sorted color bucket — the
// caller's rank in the new communicator — in O(log k) instead of the
// former linear scan over the member array (which summed to O(k²)
// across a large communicator's ranks).
func splitRankIn(sks []splitKey, key, oldRank int) int {
	i := sort.Search(len(sks), func(i int) bool {
		if sks[i].key != key {
			return sks[i].key > key
		}
		return sks[i].rank >= oldRank
	})
	if i == len(sks) || sks[i].key != key || sks[i].rank != oldRank {
		panic("mpi: split bookkeeping error")
	}
	return i
}

// Split partitions the communicator by color, ordering ranks within each
// new communicator by (key, old rank), mirroring MPI_Comm_split. Ranks
// passing a negative color receive nil (MPI_UNDEFINED). The completer
// buckets the contributions by color, sorts each bucket and builds its
// group; every rank then finds its own place in its color's bucket.
func (c *Comm) Split(color, key int) *Comm {
	in := splitKey{color: color, key: key, world: c.rank.id, rank: c.myRank}
	res := c.rendezvous("split", in, 16, func(inputs []any) any {
		colors := make(map[int]*splitColor)
		for _, bx := range inputs {
			sk := bx.(splitKey)
			if sk.color < 0 {
				continue
			}
			sc := colors[sk.color]
			if sc == nil {
				sc = &splitColor{}
				colors[sk.color] = sc
			}
			sc.sks = append(sc.sks, sk)
		}
		for _, sc := range colors {
			sortSplitKeys(sc.sks)
			sc.group = buildSplitGroup(sc.sks)
		}
		return colors
	})
	if color < 0 {
		return nil
	}
	sc := res.(map[int]*splitColor)[color]
	return &Comm{rank: c.rank, group: sc.group, myRank: splitRankIn(sc.sks, key, c.myRank)}
}
