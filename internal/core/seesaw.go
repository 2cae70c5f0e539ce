// SeeSAw: the paper's energy-feedback power allocator (Section IV).
package core

import (
	"fmt"

	"seesaw/internal/stats"
	"seesaw/internal/units"
)

// SeeSAwConfig parameterizes the allocator.
type SeeSAwConfig struct {
	// Constraints carry the budget C and the hardware cap range
	// [delta_min, delta_max].
	Constraints Constraints
	// Window is w: after how many synchronizations power is
	// redistributed, averaging measurements over the window (Section
	// IV-A). Must be >= 1.
	Window int
	// NoEWMA disables the Eq. 3-4 smoothing and jumps straight to the
	// Eq. 2 optimum every allocation. Exists for the ablation harness;
	// the paper argues the EWMA is what guards against noise and
	// anomalies.
	NoEWMA bool
}

// SeeSAw balances the global power budget between the simulation and
// analysis partitions using energy (time x power) as the feedback metric,
// so that both reach synchronization points at the same time.
//
// At every w-th synchronization it:
//
//  1. averages each partition's interval time and power over the last w
//     intervals (T_j, P_j);
//  2. linearizes time-vs-power via alpha = 1/(T*P) (Eq. 1);
//  3. solves for the budget split that equalizes predicted times:
//     P_S = C*alpha_A/(alpha_S+alpha_A), P_A = C*alpha_S/(alpha_S+alpha_A)
//     (Eq. 2) — i.e. power proportional to each task's energy share;
//  4. smooths the step with an exponentially weighted moving average
//     whose weight is the optimal power's budget fraction r = P_OPT/C
//     (Eq. 3): P_new = r*P_OPT + (1-r)*P_prev. (Eq. 4 as printed in the
//     paper reduces to P_OPT exactly; blending with the previous
//     allocation is the evidently intended noise guard — see DESIGN.md.)
//  5. divides each partition's power over its nodes and clamps each
//     node to [delta_min, delta_max], giving the remainder to the other
//     partition. The division weights nodes by capability and clamps
//     each to its own class range; on a single-class cluster every
//     weight is 1 and it divides evenly, as the paper does.
type SeeSAw struct {
	cfg SeeSAwConfig

	winSimT, winSimP *stats.RollingWindow
	winAnaT, winAnaP *stats.RollingWindow

	// previous total partition allocations (EWMA state).
	prevSim, prevAna units.Watts
	havePrev         bool

	sinceAlloc int
	allocs     int

	// div divides the partition totals over the nodes and backs the
	// returned caps (Policy ownership contract: valid until the next
	// Allocate).
	div capDivider
}

// NewSeeSAw returns a SeeSAw allocator.
func NewSeeSAw(cfg SeeSAwConfig) (*SeeSAw, error) {
	if cfg.Window < 1 {
		return nil, fmt.Errorf("core: seesaw window must be >= 1, got %d", cfg.Window)
	}
	if err := cfg.Constraints.Validate(0); err != nil {
		return nil, err
	}
	return &SeeSAw{
		cfg:     cfg,
		winSimT: stats.NewRollingWindow(cfg.Window),
		winSimP: stats.NewRollingWindow(cfg.Window),
		winAnaT: stats.NewRollingWindow(cfg.Window),
		winAnaP: stats.NewRollingWindow(cfg.Window),
	}, nil
}

// MustNewSeeSAw is NewSeeSAw that panics on configuration errors.
func MustNewSeeSAw(cfg SeeSAwConfig) *SeeSAw {
	s, err := NewSeeSAw(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements Policy.
func (*SeeSAw) Name() string { return "seesaw" }

// Allocations reports how many times power was actually redistributed.
func (s *SeeSAw) Allocations() int { return s.allocs }

// Allocate implements Policy.
func (s *SeeSAw) Allocate(step int, nodes []NodeMeasure) []units.Watts {
	simT, anaT, simP, anaP, nSim, nAna := partitionTotals(nodes)
	if nSim == 0 || nAna == 0 {
		return nil
	}
	// Fold this interval into the measurement windows.
	s.winSimT.Add(float64(simT))
	s.winSimP.Add(float64(simP))
	s.winAnaT.Add(float64(anaT))
	s.winAnaP.Add(float64(anaP))

	s.sinceAlloc++
	if s.sinceAlloc < s.cfg.Window {
		return nil
	}
	s.sinceAlloc = 0

	// Window averages (Section IV-A).
	tS := s.winSimT.Mean()
	pS := s.winSimP.Mean()
	tA := s.winAnaT.Mean()
	pA := s.winAnaP.Mean()
	if tS <= 0 || tA <= 0 || pS <= 0 || pA <= 0 {
		return nil
	}

	C := float64(s.cfg.Constraints.Budget)

	// Eq. 1-2: optimal split proportional to energy share.
	optS, optA := OptimalSplit(units.Watts(C), units.Seconds(tS), units.Watts(pS), units.Seconds(tA), units.Watts(pA))

	// Eq. 3-4: EWMA with weight r = P_OPT / C against the previous
	// allocation.
	if !s.havePrev {
		s.prevSim = units.Watts(pS)
		s.prevAna = units.Watts(pA)
		s.havePrev = true
	}
	newSim, newAna := optS, optA
	if !s.cfg.NoEWMA {
		rS := float64(optS) / C
		rA := float64(optA) / C
		newSim = units.Watts(stats.Blend(float64(optS), float64(s.prevSim), rS))
		newAna = units.Watts(stats.Blend(float64(optA), float64(s.prevAna), rA))
	}

	// Re-normalize to the budget: the two independent EWMAs may not sum
	// exactly to C.
	total := newSim + newAna
	if total > 0 {
		newSim = newSim * s.cfg.Constraints.Budget / total
		newAna = s.cfg.Constraints.Budget - newSim
	}
	s.prevSim, s.prevAna = newSim, newAna

	s.allocs++
	return s.div.divide(nodes, newSim, newAna, s.cfg.Constraints)
}

// OptimalSplit solves the paper's Eq. 1-2 for the budget split that the
// linearized model predicts equalizes the two tasks' times: given the
// last interval's times and powers, each task receives power
// proportional to its energy share E/(E_S+E_A).
func OptimalSplit(budget units.Watts, tS units.Seconds, pS units.Watts, tA units.Seconds, pA units.Watts) (units.Watts, units.Watts) {
	eS := float64(tS) * float64(pS)
	eA := float64(tA) * float64(pA)
	if eS <= 0 || eA <= 0 {
		half := budget / 2
		return half, budget - half
	}
	// alpha = 1/E; P_S = C*alpha_A/(alpha_S+alpha_A) = C*E_S/(E_S+E_A).
	s := units.Watts(float64(budget) * eS / (eS + eA))
	return s, budget - s
}

// PredictEqualTime returns the time at which both tasks are predicted to
// reach the next synchronization under the optimal split, per the linear
// model t = 1/(alpha*P): with P_S = C*E_S/(E_S+E_A),
// t* = (E_S+E_A)/C. Used by the Fig. 2 illustration.
func PredictEqualTime(budget units.Watts, tS units.Seconds, pS units.Watts, tA units.Seconds, pA units.Watts) units.Seconds {
	if budget <= 0 {
		return 0
	}
	eS := float64(tS) * float64(pS)
	eA := float64(tA) * float64(pA)
	return units.Seconds((eS + eA) / float64(budget))
}
