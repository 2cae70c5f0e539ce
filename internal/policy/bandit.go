// The bandit allocator: an epsilon-greedy policy-over-policies that
// picks per-window among the hand-written allocators. It is the
// demonstration allocator for the rollout substrate (ROADMAP's
// policy-search item, SPARS-style): simple enough to read in one
// sitting, adaptive enough to beat every fixed policy on scenarios
// whose best fixed choice changes mid-run (a node kill, a placement
// whose transient favors one policy and whose steady state favors
// another).
package policy

import (
	"fmt"
	"math"
	"sort"

	"seesaw/internal/core"
	"seesaw/internal/rng"
	"seesaw/internal/units"
)

// BanditConfig parameterizes the arm-selection loop.
type BanditConfig struct {
	// Constraints are handed to every arm.
	Constraints core.Constraints
	// Window is the arms' reallocation window w (>= 1); the episode
	// length is derived from it (at least MinEpisode syncs).
	Window int
	// MinEpisode is the minimum number of synchronizations an arm is
	// held before the selection is revisited.
	MinEpisode int
	// Epsilon is the exploration probability at episode boundaries.
	Epsilon float64
	// Beta is the recency weight of the reward estimate update: values
	// near 1 track regime changes quickly, values near 0 average long.
	Beta float64
	// ResetDrop confirms a regime shift when two consecutive episodes'
	// rewards land more than this fraction away from the estimate the
	// current arm was selected with (the anchor), in either direction.
	// A confirmed shift refreshes every arm's adaptive state in place
	// — the change-detection that hands a fault or excursion boundary
	// to freshly constructed arms instead of converged, ratcheted-down
	// ones. It doubles as the exploration margin: epsilon-exploration
	// only visits arms whose estimate is within half this fraction of
	// the best, so a clearly dominated arm is never re-run.
	ResetDrop float64
	// Seed drives exploration deterministically.
	Seed uint64
}

// DefaultBanditConfig returns the tuned defaults.
func DefaultBanditConfig(c core.Constraints, w int) BanditConfig {
	return BanditConfig{
		Constraints: c,
		Window:      w,
		MinEpisode:  4,
		Epsilon:     0.02,
		Beta:        0.5,
		ResetDrop:   0.08,
		Seed:        0x5ee5a0,
	}
}

// Bandit selects per-episode among the hand-written policies with an
// epsilon-greedy rule over a recency-weighted reward estimate (negative
// mean interval wall time, so shorter intervals are better).
//
// The loop has two phases. In the audition phase every arm runs for one
// double-length episode scored on its second half (so the takeover
// transient of inheriting another arm's caps is not billed to the arm),
// seeding its estimate with a measured reward rather than an optimistic
// guess; an audition episode already trailing the round's best score is
// aborted early (racing cutoff). In the greedy phase the best-estimate
// arm runs, with probability Epsilon of exploring another near-best arm
// at each episode boundary. Two consecutive episodes whose rewards land
// more than ResetDrop away from the anchor — the estimate the arm was
// selected with, deliberately not the running EWMA, which would track a
// gradual drift silently — confirm a regime shift: every arm's adaptive
// state is rebuilt in place, the current arm keeps running, and the
// stale estimates are rescaled by the observed shift so their rank
// order survives at the new regime's reward level. Refreshing the arms
// is the bandit's real edge over any fixed policy: adaptive allocators
// ratchet their reactivity down as they converge (time-aware's step
// decays geometrically and never recovers), so a fixed instance unwinds
// an excursion's cap skew at 1 W per adjustment, while the bandit's
// fresh instance re-balances at full initial step. The static arm
// doubles as "freeze the current allocation": selecting it holds
// whatever caps the previous arm converged to instead of resetting to
// the even split.
type Bandit struct {
	cfg   BanditConfig
	names []string
	arms  []core.Policy
	rng   *rng.Stream

	episode int // syncs per episode

	value []float64 // recency-weighted reward estimate per arm
	seen  []bool    // audition coverage

	cur         int     // current arm
	auditioning bool    // audition phase active
	order       []int   // audition visiting order (previous best first)
	auditionIdx int     // position in order of the arm under audition
	auditionRef float64 // best score seen this audition round (racing cutoff)
	haveRef     bool    // auditionRef holds a score
	anchor      float64 // estimate the current arm was selected with (drift reference)
	shifted     bool    // previous episode's reward already shifted (two-strike reset)

	epSyncs   int     // syncs elapsed in the current episode
	epReward  float64 // summed reward of the current episode (attribution-lagged)
	epHalf    float64 // reward over the episode's second half (audition scoring)
	epHalfN   int     // scored syncs in the second half
	refreshes int     // confirmed regime shifts (arm rebuilds)
	allocs    int
	history   []ArmSpan // selection history, for introspection
}

// ArmSpan records one contiguous stretch of a single arm's tenure.
type ArmSpan struct {
	// FromSync is the 1-based synchronization index the arm took over at.
	FromSync int
	// Arm is the selected arm's policy name.
	Arm string
	// Audition marks spans run to score an arm rather than exploit it.
	Audition bool
}

// NewBandit returns an epsilon-greedy bandit over the hand-written
// policies (the static baseline plus the compared allocators).
func NewBandit(cfg BanditConfig) (*Bandit, error) {
	if cfg.Window < 1 {
		return nil, fmt.Errorf("policy: bandit window must be >= 1, got %d", cfg.Window)
	}
	if cfg.MinEpisode < 1 {
		return nil, fmt.Errorf("policy: bandit episode must be >= 1, got %d", cfg.MinEpisode)
	}
	if cfg.Epsilon < 0 || cfg.Epsilon >= 1 {
		return nil, fmt.Errorf("policy: bandit epsilon %v outside [0,1)", cfg.Epsilon)
	}
	if cfg.Beta <= 0 || cfg.Beta > 1 {
		return nil, fmt.Errorf("policy: bandit beta %v outside (0,1]", cfg.Beta)
	}
	if err := cfg.Constraints.Validate(0); err != nil {
		return nil, err
	}
	names := append([]string{"static"}, Compared()...)
	episode := cfg.MinEpisode
	if cfg.Window > episode {
		episode = cfg.Window
	}
	b := &Bandit{
		cfg:     cfg,
		names:   names,
		rng:     rng.Derive(cfg.Seed, "policy-bandit"),
		episode: episode,
		value:   make([]float64, len(names)),
		seen:    make([]bool, len(names)),
	}
	if err := b.buildArms(); err != nil {
		return nil, err
	}
	b.startAudition()
	return b, nil
}

// startAudition begins an audition round: every arm runs one
// double-length episode scored on its second half (so the score
// measures the arm's converged behavior, not its takeover transient),
// visited in previous-best-first order so the racing cutoff gets its
// reference score from the likely winner and dominated arms abort
// early. On the very first audition every estimate is zero and the
// order degrades to registration order, which begins with static — the
// even split every run starts from, the natural reference.
func (b *Bandit) startAudition() {
	order := make([]int, len(b.arms))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return b.value[order[x]] > b.value[order[y]] })
	b.order = order
	for i := range b.seen {
		b.seen[i] = false
	}
	b.auditioning = true
	b.auditionIdx = 0
	b.haveRef = false
	b.shifted = false
	b.cur = order[0]
}

// buildArms (re)constructs the arm policies with fresh adaptive state.
func (b *Bandit) buildArms() error {
	arms := make([]core.Policy, len(b.names))
	for i, n := range b.names {
		p, err := New(n, b.cfg.Constraints, b.cfg.Window)
		if err != nil {
			return fmt.Errorf("policy: bandit arm %q: %w", n, err)
		}
		arms[i] = p
	}
	b.arms = arms
	return nil
}

// Name implements Policy.
func (*Bandit) Name() string { return "bandit" }

// Arm returns the currently selected arm's policy name.
func (b *Bandit) Arm() string { return b.arms[b.cur].Name() }

// Allocations reports how many Allocate invocations were delegated.
func (b *Bandit) Allocations() int { return b.allocs }

// Refreshes reports how many confirmed regime shifts rebuilt the arms.
func (b *Bandit) Refreshes() int { return b.refreshes }

// History returns the arm-selection history: one span per contiguous
// stretch of a single arm's tenure, in order.
func (b *Bandit) History() []ArmSpan { return append([]ArmSpan(nil), b.history...) }

// Allocate implements Policy: it scores the interval that just ended,
// delegates the allocation to the current arm, and revisits the arm
// choice at episode boundaries.
func (b *Bandit) Allocate(step int, nodes []core.NodeMeasure) []units.Watts {
	// Interval wall time: every live node reports the same
	// allocator-to-allocator interval (work + sync wait).
	var wall units.Seconds
	for _, n := range nodes {
		if n.Health == core.Dead {
			continue
		}
		if n.Time > wall {
			wall = n.Time
		}
	}
	// The first sync of an episode still reflects the previous arm's
	// caps (allocations take effect for the next interval), so its
	// reward is not attributed to the new arm.
	if b.epSyncs > 0 && wall > 0 {
		b.epReward -= float64(wall)
		if b.auditioning && b.epSyncs >= b.episode {
			b.epHalf -= float64(wall)
			b.epHalfN++
		}
	}
	b.epSyncs++

	b.allocs++
	if len(b.history) == 0 {
		b.history = append(b.history, ArmSpan{FromSync: step, Arm: b.Arm(), Audition: b.auditioning})
	}
	caps := b.arms[b.cur].Allocate(step, nodes)

	if b.epSyncs >= b.episodeLen() || b.auditionLost() {
		b.endEpisode(step + 1)
	}
	return caps
}

// episodeLen is the current episode's length in syncs: audition
// episodes run twice as long as greedy ones so the scored second half
// measures the arm past its takeover transient.
func (b *Bandit) episodeLen() int {
	if b.auditioning {
		return 2 * b.episode
	}
	return b.episode
}

// auditionLost is the racing cutoff: an audition episode that already
// trails the round's best score by over the shift threshold in its
// scored half (or by triple that on the raw first-half mean) cannot win
// the audition, so it ends early instead of burning its remaining syncs
// on a clearly dominated arm.
func (b *Bandit) auditionLost() bool {
	if !b.auditioning || !b.haveRef {
		return false
	}
	if b.epHalfN >= 2 {
		mean := b.epHalf / float64(b.epHalfN)
		return mean < b.auditionRef-0.5*b.cfg.ResetDrop*math.Abs(b.auditionRef)
	}
	if scored := b.epSyncs - 1; scored >= 3 {
		mean := b.epReward / float64(scored)
		return mean < b.auditionRef-3*b.cfg.ResetDrop*math.Abs(b.auditionRef)
	}
	return false
}

// endEpisode folds the episode's reward into the arm's estimate and
// selects the next arm; nextSync is the synchronization the selection
// takes effect at (history bookkeeping).
func (b *Bandit) endEpisode(nextSync int) {
	scored := b.epSyncs - 1 // first sync is attribution-lagged
	var r float64
	switch {
	case b.auditioning && b.epHalfN > 0:
		r = b.epHalf / float64(b.epHalfN) // converged-half score
	case scored > 0:
		r = b.epReward / float64(scored) // full mean (greedy, or aborted audition)
	}
	prev := b.cur
	switch {
	case b.auditioning:
		b.value[b.cur] = r
		b.seen[b.cur] = true
		if !b.haveRef || r > b.auditionRef {
			b.auditionRef, b.haveRef = r, true
		}
		b.auditionIdx++
		if b.auditionIdx < len(b.order) {
			b.cur = b.order[b.auditionIdx]
		} else {
			b.auditioning = false
			b.cur = b.best()
			b.anchor = b.value[b.cur]
		}
	case math.Abs(r-b.anchor) > b.cfg.ResetDrop*math.Abs(b.anchor):
		// Reward shifted away from the estimate this arm was selected
		// with. The anchor is deliberately NOT the running EWMA: a
		// regime that changes gradually (an excursion's drag released,
		// caps crawling back) drifts the EWMA along with it and would
		// never look like a step. One shifted episode can be noise; two
		// in a row mean the world changed under us: refresh the arms in
		// place. Their converged adaptive state belongs to the old
		// regime — a time-aware arm whose step has decayed to the floor
		// would unwind excursion-skewed caps at 1 W per sync, while a
		// rebuilt one re-adapts at the full initial step. The current
		// arm keeps running (no audition churn through known-worse
		// arms); the stale estimates are rescaled by the observed shift
		// so their rank order survives but their magnitude matches the
		// new regime, leaving exploration to re-rank arms the shift
		// actually reordered.
		if !b.shifted {
			b.shifted = true
			b.value[b.cur] = (1-b.cfg.Beta)*b.value[b.cur] + b.cfg.Beta*r
			break
		}
		b.shifted = false
		b.refreshes++
		if err := b.buildArms(); err != nil {
			// Arms built once already; a rebuild cannot fail. Keep the
			// old instances if it somehow does.
			_ = err
		}
		if b.anchor != 0 && r/b.anchor > 0 {
			ratio := r / b.anchor
			for i := range b.value {
				if b.seen[i] && i != b.cur {
					b.value[i] *= ratio
				}
			}
		}
		b.value[b.cur] = r
		b.anchor = r
	default:
		b.shifted = false
		b.value[b.cur] = (1-b.cfg.Beta)*b.value[b.cur] + b.cfg.Beta*r
		if b.cfg.Epsilon > 0 && b.rng.Float64() < b.cfg.Epsilon {
			b.cur = b.explore()
		} else {
			b.cur = b.best()
		}
		if b.cur != prev {
			b.anchor = b.value[b.cur]
		}
	}
	if n := len(b.history); n > 0 && (b.history[n-1].Arm != b.Arm() || b.history[n-1].Audition != b.auditioning) {
		b.history = append(b.history, ArmSpan{FromSync: nextSync, Arm: b.Arm(), Audition: b.auditioning})
	}
	b.epSyncs = 0
	b.epReward = 0
	b.epHalf = 0
	b.epHalfN = 0
}

// explore picks a uniformly random arm among the viable set: arms whose
// estimate is within half of ResetDrop of the best, so exploration
// refreshes the estimates of genuine contenders without re-running an
// arm the audition already showed to be clearly dominated.
func (b *Bandit) explore() int {
	best := b.value[b.best()]
	margin := 0.5 * b.cfg.ResetDrop * math.Abs(best)
	var viable []int
	for i, v := range b.value {
		if b.seen[i] && v >= best-margin {
			viable = append(viable, i)
		}
	}
	if len(viable) == 0 {
		return b.best()
	}
	return viable[int(b.rng.Uint64()%uint64(len(viable)))]
}

// best returns the arm with the highest reward estimate (ties to the
// lowest index, deterministically).
func (b *Bandit) best() int {
	bi, bv := 0, math.Inf(-1)
	for i, v := range b.value {
		if b.seen[i] && v > bv {
			bi, bv = i, v
		}
	}
	return bi
}

func init() {
	Register("bandit", "epsilon-greedy per-window selection among the hand-written policies (rollout-search demo)",
		func(cons core.Constraints, w int) (core.Policy, error) {
			return NewBandit(DefaultBanditConfig(cons, w))
		})
}
