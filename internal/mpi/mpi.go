// Package mpi is an in-process message-passing runtime with virtual
// time, standing in for MPI in the paper's software stack. Ranks are
// goroutines; communicators, sub-communicators (Split), collectives
// (Barrier, Allreduce, Bcast, Allgather) and tagged point-to-point
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
// The runtime is built to stay tractable at thousands of ranks (see
// DESIGN.md, "Scaling the substrate"). Every collective, whatever its
// group's size, meets at one rendezvous: members arrive under the
// group's mutex, folding the op name, payload size and clock as they
// come and leaving their input in their own slot; the last arriver
// reduces in rank order, publishes a fresh per-generation state and
// opens its gate. The other members park on that gate with a plain
// channel receive — never a select, whose per-case lock on a shared
// cancellation channel would serialize every park and wake through one
// lock — and read the result after they wake without taking the group
// lock again. The float64 reductions the power stack issues on every
// synchronization take a typed path with no interface boxing and a
// single result copy per rank. Mailboxes index messages by (source,
// tag), so a receive matches in O(1) regardless of backlog and a send
// wakes at most the one receiver waiting on that pair.
package mpi

import (
	"context"
	"errors"
	"fmt"
	"math"
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
// every rank's parked gate (published by park just before it blocks)
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
}

// Run executes body on n concurrent ranks and blocks until all return.
// A panic on any rank is captured and returned as an error naming the
// rank. All clocks start at zero.
func Run(n int, cost CostModel, body func(r *Rank)) error {
	return RunContext(context.Background(), n, cost, nil, body)
}

// RunContext is Run under a context and with an optional telemetry hub,
// to which collective rendezvous waits and point-to-point message counts
// are reported (nil disables it). When ctx is cancelled, ranks blocked
// in Recv or a collective unwind promptly (via an internal sentinel
// panic the runtime recognizes), ranks doing local work abort at their
// next communication, and RunContext returns ctx.Err(). A rank panic
// unrelated to cancellation still wins over the context error.
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

// rendezvousState is one collective generation's publication: the
// member that completes (or poisons) the generation fills it, sets
// completed and opens the gate; the parked members read it after they
// wake, without the group lock. A gate opened without completed set
// means the run was cancelled mid-collective. A fresh state per
// generation keeps a late reader's result intact while the group
// already collects the next generation.
type rendezvousState struct {
	completed atomic.Bool
	result    any       // untyped collectives
	floats    []float64 // typed float64 reductions
	resClock  units.Seconds
	// poisoned carries a collective-mismatch or reduce-failure message;
	// every member panics with it instead of hanging.
	poisoned string
	done     gate
}

// group is the shared state of a communicator: its members and the
// arrival scratch of the collective in progress.
//
// Members arrive under mu. The running fold of op name, bytes and clock
// spares the completer a scan over per-member arrays; inputs/floats stay
// per-slot because reduction order is part of the determinism contract.
// The last arriver reduces and publishes into cur and opens its gate;
// the others wait on that gate outside the lock, so releasing a group
// never has its members queue on mu again. poisoned is sticky: a
// mismatched or panicking collective fails every later arrival too.
type group struct {
	mu       sync.Mutex
	count    int
	op       string
	bytes    int
	clock    units.Seconds
	cur      *rendezvousState
	inputs   []any
	floats   [][]float64
	members  []int // world ids, ordered by rank-in-group
	poisoned string
}

func newGroup(members []int) *group {
	k := len(members)
	return &group{
		members: members,
		inputs:  make([]any, k),
		floats:  make([][]float64, k),
	}
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

// join contributes one member's (opName, payload, clock) to the group's
// current collective, blocks until the generation completes, advances
// the rank's clock to the merged clock, reports the rendezvous wait and
// returns the generation's state. The first arriver allocates a fresh
// state; the last one reduces and publishes it. Exactly one of input/reduce
// (untyped) or fvals/freduce (typed float64) is used.
func (c *Comm) join(opName string, bytes int, input any, fvals []float64,
	reduce func([]any) any, freduce func([][]float64) []float64) *rendezvousState {

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
	st := g.cur
	if g.count == 0 {
		st = &rendezvousState{done: newGate()}
		g.cur = st
		g.op = opName
		g.bytes = bytes
		g.clock = r.clock
	} else {
		if g.op != opName {
			// Fail the members already parked on this generation, and
			// every later arrival, instead of leaving them to hang.
			msg := fmt.Sprintf("mpi: collective mismatch on communicator: %q vs %q", g.op, opName)
			g.poisoned = msg
			st.poisoned = msg
			g.mu.Unlock()
			st.completed.Store(true)
			st.done.release()
			panic(msg)
		}
		if bytes > g.bytes {
			g.bytes = bytes
		}
		if r.clock > g.clock {
			g.clock = r.clock
		}
	}
	if freduce != nil {
		g.floats[c.myRank] = fvals
	} else {
		g.inputs[c.myRank] = input
	}
	g.count++
	if g.count < k {
		g.mu.Unlock()
		r.park(st)
	} else {
		g.count = 0
		st.resClock = g.clock + rt.cost.CollectiveCost(k, g.bytes)
		// A panicking reduce (malformed collective arguments) must poison
		// the group so waiters abort instead of hanging.
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					st.poisoned = fmt.Sprint(rec)
					g.poisoned = st.poisoned
				}
			}()
			if freduce != nil {
				st.floats = freduce(g.floats[:k])
			} else {
				st.result = reduce(g.inputs[:k])
			}
		}()
		g.mu.Unlock()
		st.completed.Store(true)
		st.done.release()
	}
	if st.poisoned != "" {
		panic(st.poisoned)
	}
	if st.resClock > r.clock {
		r.clock = st.resClock
	}
	if rt.tel != nil {
		if wait := r.clock - entryClock; wait > 0 {
			if m := rt.waitMetric(opName); m != nil {
				m.Observe(float64(wait))
			}
		}
	}
	return st
}

// park publishes the generation's gate this rank is about to block on,
// rechecks the cancellation flag, blocks, and verifies the generation
// was genuinely published. The recheck after the store is what closes
// the check-then-park window: if doCancel's walk ran before the store,
// its flag store is seq-cst-before this load and the rank unwinds
// instead of parking on a gate nobody will open; otherwise the walk sees
// the pointer and opens the gate. A gate opened by cancellation rather
// than by the completing member leaves completed unset, and the rank
// unwinds then too.
func (r *Rank) park(st *rendezvousState) {
	r.parked.Store(&st.done)
	if r.rt.isCancelled() {
		r.parked.Store(nil)
		panic(errCanceled)
	}
	<-st.done.ch
	r.parked.Store(nil)
	if !st.completed.Load() {
		panic(errCanceled)
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
	return c.join(opName, bytes, input, nil, reduce, nil).result
}

// rendezvousFloats is the typed path for the float64 reductions the
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
	return append([]float64(nil), c.join(opName, 8*len(vals), nil, vals, nil, freduce).floats...)
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
