// Package fault defines deterministic fault-injection plans for the
// simulated platform. A plan is a set of events keyed to the
// virtual synchronization schedule — "kill node n at sync k", "slow
// node n by a factor f over a window of syncs" — consumed by the
// drivers (cosim, insitu) through the cluster layer. Plans are plain
// data: the same plan against the same seeds yields bit-identical
// runs, so faulty campaigns stay reproducible.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"seesaw/internal/units"
)

// Kind discriminates the supported perturbations.
type Kind int

const (
	// Kill removes the node permanently: it stops executing work,
	// draws no power, and is excluded from allocation.
	Kill Kind = iota
	// Slow multiplies the node's phase durations by Factor for Window
	// synchronizations (a transient excursion: thermal throttling, a
	// noisy neighbour, a failing fan).
	Slow
)

// String names the kind as it appears in the CLI grammar.
func (k Kind) String() string {
	switch k {
	case Kill:
		return "kill"
	case Slow:
		return "slow"
	default:
		return fmt.Sprintf("invalid-kind(%d)", int(k))
	}
}

// Event is one planned perturbation. Sync indices are 1-based and
// count the job's synchronization points in virtual-time order, so an
// event at Sync k fires before the interval that ends at the k-th
// synchronization executes.
type Event struct {
	Kind Kind
	// Node is the stable node id (cosim node index / insitu world
	// rank) the event targets.
	Node int
	// Sync is the 1-based synchronization index at which the event
	// fires.
	Sync int
	// Factor (Slow only) multiplies phase durations; must be positive
	// and finite. Factors above 1 slow the node down.
	Factor float64
	// Window (Slow only) is how many synchronizations the excursion
	// lasts; the node recovers before sync Sync+Window executes.
	Window int
}

// String renders the event in the Parse grammar.
func (e Event) String() string {
	switch e.Kind {
	case Kill:
		return fmt.Sprintf("kill:%d@%d", e.Node, e.Sync)
	case Slow:
		// The factor prints without an exponent: %g would write 1e+06,
		// whose '+' Parse reads as the window separator.
		return fmt.Sprintf("slow:%d@%dx%s+%d", e.Node, e.Sync, strconv.FormatFloat(e.Factor, 'f', -1, 64), e.Window)
	default:
		return fmt.Sprintf("invalid:%d@%d", e.Node, e.Sync)
	}
}

// Plan is a deterministic fault schedule. The zero value and nil are
// both valid empty plans; all query methods are nil-safe so drivers
// can thread an optional *Plan without guarding every call site.
type Plan struct {
	Events []Event
}

// Empty reports whether the plan schedules no events.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Validate checks every event against a platform of n nodes: targets
// in [0, n), sync >= 1, slow factors positive and finite with windows
// >= 1, and at most one kill per node.
func (p *Plan) Validate(n int) error {
	if p.Empty() {
		return nil
	}
	killed := make(map[int]bool)
	for i, e := range p.Events {
		if e.Node < 0 || e.Node >= n {
			return fmt.Errorf("fault: event %d (%s) targets node %d outside the %d-node platform", i, e, e.Node, n)
		}
		if e.Sync < 1 {
			return fmt.Errorf("fault: event %d (%s) has sync %d; syncs are 1-based", i, e, e.Sync)
		}
		switch e.Kind {
		case Kill:
			if killed[e.Node] {
				return fmt.Errorf("fault: event %d (%s) kills node %d twice", i, e, e.Node)
			}
			killed[e.Node] = true
		case Slow:
			if e.Factor <= 0 || !units.IsFinite(e.Factor) {
				return fmt.Errorf("fault: event %d (%s) has factor %g; must be positive and finite", i, e, e.Factor)
			}
			if e.Window < 1 {
				return fmt.Errorf("fault: event %d (%s) has window %d; must cover at least one sync", i, e, e.Window)
			}
		default:
			return fmt.Errorf("fault: event %d has invalid kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// KillSync returns the earliest sync at which the plan kills node, or
// 0 if it never does.
func (p *Plan) KillSync(node int) int {
	if p.Empty() {
		return 0
	}
	at := 0
	for _, e := range p.Events {
		if e.Kind == Kill && e.Node == node && (at == 0 || e.Sync < at) {
			at = e.Sync
		}
	}
	return at
}

// SlowFactor returns the combined duration multiplier active on node
// at the given sync: the product of every Slow event whose window
// [Sync, Sync+Window) covers it, or exactly 1 when none does.
func (p *Plan) SlowFactor(node, sync int) float64 {
	if p.Empty() {
		return 1
	}
	f := 1.0
	for _, e := range p.Events {
		if e.Kind == Slow && e.Node == node && sync >= e.Sync && sync < e.Sync+e.Window {
			f *= e.Factor
		}
	}
	return f
}

// Kills returns the node ids the plan ever kills, ascending.
func (p *Plan) Kills() []int {
	if p.Empty() {
		return nil
	}
	var ids []int
	seen := make(map[int]bool)
	for _, e := range p.Events {
		if e.Kind == Kill && !seen[e.Node] {
			seen[e.Node] = true
			ids = append(ids, e.Node)
		}
	}
	sort.Ints(ids)
	return ids
}

// Rebase shifts every event's sync by -offset, for drivers that slice
// one job into epochs with per-epoch sync numbering (sched). Kills
// whose sync has already passed are clamped to sync 1 so the node
// stays dead in later epochs; slow events are clipped to their
// remaining window and dropped once expired. Returns nil when nothing
// remains.
func (p *Plan) Rebase(offset int) *Plan {
	if p.Empty() {
		return nil
	}
	var out []Event
	for _, e := range p.Events {
		s := e.Sync - offset
		switch e.Kind {
		case Kill:
			if s < 1 {
				s = 1
			}
			out = append(out, Event{Kind: Kill, Node: e.Node, Sync: s})
		case Slow:
			end := s + e.Window // exclusive
			if end <= 1 {
				continue // the excursion ended in a previous epoch
			}
			if s < 1 {
				s = 1
			}
			out = append(out, Event{Kind: Slow, Node: e.Node, Sync: s, Factor: e.Factor, Window: end - s})
		}
	}
	if len(out) == 0 {
		return nil
	}
	return &Plan{Events: out}
}

// String renders the plan in the Parse grammar (comma-separated
// events, in plan order). The empty plan renders as "".
func (p *Plan) String() string {
	if p.Empty() {
		return ""
	}
	parts := make([]string, len(p.Events))
	for i, e := range p.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// Parse reads a comma-separated plan in the CLI grammar:
//
//	kill:NODE@SYNC            kill NODE at synchronization SYNC
//	slow:NODE@SYNC            2x slowdown for 10 syncs (defaults)
//	slow:NODE@SYNCxFACTOR     FACTOR slowdown for 10 syncs
//	slow:NODE@SYNCxFACTOR+WIN FACTOR slowdown for WIN syncs
//
// e.g. "kill:5@20,slow:3@10x2.0+15". An empty string parses to nil.
func Parse(s string) (*Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var p Plan
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		e, err := parseEvent(tok)
		if err != nil {
			return nil, err
		}
		p.Events = append(p.Events, e)
	}
	if len(p.Events) == 0 {
		return nil, nil
	}
	return &p, nil
}

const (
	// DefaultSlowFactor is the excursion multiplier when the spec
	// omits one (the "2x slow node" of the experiments).
	DefaultSlowFactor = 2.0
	// DefaultSlowWindow is the excursion length in syncs when the
	// spec omits one.
	DefaultSlowWindow = 10
)

func parseEvent(tok string) (Event, error) {
	kind, rest, ok := strings.Cut(tok, ":")
	if !ok {
		return Event{}, fmt.Errorf("fault: %q: want kill:NODE@SYNC or slow:NODE@SYNC[xFACTOR[+WINDOW]]", tok)
	}
	nodeStr, at, ok := strings.Cut(rest, "@")
	if !ok {
		return Event{}, fmt.Errorf("fault: %q: missing @SYNC", tok)
	}
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		return Event{}, fmt.Errorf("fault: %q: bad node %q: %v", tok, nodeStr, err)
	}
	switch kind {
	case "kill":
		sync, err := strconv.Atoi(at)
		if err != nil {
			return Event{}, fmt.Errorf("fault: %q: bad sync %q: %v", tok, at, err)
		}
		return Event{Kind: Kill, Node: node, Sync: sync}, nil
	case "slow":
		e := Event{Kind: Slow, Node: node, Factor: DefaultSlowFactor, Window: DefaultSlowWindow}
		syncStr, factorPart, hasFactor := strings.Cut(at, "x")
		if e.Sync, err = strconv.Atoi(syncStr); err != nil {
			return Event{}, fmt.Errorf("fault: %q: bad sync %q: %v", tok, syncStr, err)
		}
		if hasFactor {
			factorStr, winStr, hasWin := strings.Cut(factorPart, "+")
			if e.Factor, err = strconv.ParseFloat(factorStr, 64); err != nil {
				return Event{}, fmt.Errorf("fault: %q: bad factor %q: %v", tok, factorStr, err)
			}
			if hasWin {
				if e.Window, err = strconv.Atoi(winStr); err != nil {
					return Event{}, fmt.Errorf("fault: %q: bad window %q: %v", tok, winStr, err)
				}
			}
		}
		return e, nil
	default:
		return Event{}, fmt.Errorf("fault: %q: unknown kind %q (want kill or slow)", tok, kind)
	}
}

// KilledError is the error an insitu job unwinds with when a planned
// kill fires: the killed rank poisons the mpi run context so every
// blocked collective returns, mirroring a real MPI job abort.
type KilledError struct {
	Node int
	Sync int
}

func (e *KilledError) Error() string {
	return fmt.Sprintf("fault: node %d killed at sync %d; job aborted", e.Node, e.Sync)
}
