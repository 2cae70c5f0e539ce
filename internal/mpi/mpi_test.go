package mpi

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"seesaw/internal/units"
)

func run(t *testing.T, n int, body func(r *Rank)) {
	t.Helper()
	if err := Run(n, DefaultCost(), body); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadRankCount(t *testing.T) {
	if err := Run(0, DefaultCost(), func(*Rank) {}); err == nil {
		t.Error("Run(0) should fail")
	}
}

func TestWorldBasics(t *testing.T) {
	run(t, 4, func(r *Rank) {
		if r.World().Size() != 4 {
			panic("wrong comm size")
		}
		if r.World().Rank() != r.WorldRank() {
			panic("world comm rank mismatch")
		}
	})
}

func TestElapseAndClock(t *testing.T) {
	run(t, 2, func(r *Rank) {
		r.Elapse(1.5)
		if r.Clock() != 1.5 {
			panic("clock after elapse wrong")
		}
		r.AdvanceTo(1.0) // must not go backwards
		if r.Clock() != 1.5 {
			panic("AdvanceTo moved clock backwards")
		}
		r.AdvanceTo(2.0)
		if r.Clock() != 2.0 {
			panic("AdvanceTo did not advance")
		}
	})
}

func TestElapsePanicsOnNegative(t *testing.T) {
	err := Run(1, DefaultCost(), func(r *Rank) { r.Elapse(-1) })
	if err == nil {
		t.Error("negative Elapse should propagate as rank panic error")
	}
}

func TestBarrierMergesClocks(t *testing.T) {
	var mu sync.Mutex
	clocks := map[int]units.Seconds{}
	run(t, 4, func(r *Rank) {
		r.Elapse(units.Seconds(r.WorldRank())) // ranks at 0,1,2,3
		r.World().Barrier()
		mu.Lock()
		clocks[r.WorldRank()] = r.Clock()
		mu.Unlock()
	})
	for rank, c := range clocks {
		if c < 3 {
			t.Errorf("rank %d clock %v below slowest arrival 3", rank, c)
		}
		if c != clocks[0] {
			t.Errorf("clocks differ after barrier: %v vs %v", c, clocks[0])
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	run(t, 5, func(r *Rank) {
		got := r.World().AllreduceSum([]float64{float64(r.WorldRank()), 1})
		if got[0] != 10 || got[1] != 5 {
			panic(fmt.Sprintf("allreduce sum = %v", got))
		}
	})
}

func TestAllreduceMax(t *testing.T) {
	run(t, 4, func(r *Rank) {
		x := float64(r.WorldRank())
		if got := r.World().AllreduceMax([]float64{x})[0]; got != 3 {
			panic(fmt.Sprintf("allreduce max = %v", got))
		}
	})
}

func TestAllreduceDoesNotAliasInput(t *testing.T) {
	run(t, 2, func(r *Rank) {
		in := []float64{1}
		out := r.World().AllreduceSum(in)
		out[0] = 99
		if in[0] != 1 {
			panic("allreduce result aliases caller input")
		}
	})
}

func TestBcast(t *testing.T) {
	run(t, 4, func(r *Rank) {
		var payload any
		if r.WorldRank() == 2 {
			payload = "hello"
		}
		got := r.World().Bcast(2, payload, 8)
		if got != "hello" {
			panic(fmt.Sprintf("bcast got %v", got))
		}
	})
}

func TestAllgather(t *testing.T) {
	run(t, 3, func(r *Rank) {
		res := r.World().Allgather(r.WorldRank(), 8)
		for i, v := range res {
			if v != i {
				panic(fmt.Sprintf("allgather[%d] = %v", i, v))
			}
		}
	})
}

// TestBcastRootOutOfRange: a root outside the communicator fails the
// caller instead of reaching the rendezvous.
func TestBcastRootOutOfRange(t *testing.T) {
	err := Run(2, DefaultCost(), func(r *Rank) {
		r.World().Bcast(5, nil, 8)
	})
	if err == nil || !strings.Contains(err.Error(), "bcast root 5 out of range") {
		t.Errorf("err = %v, want the bad-root panic", err)
	}
}

func TestSendRecv(t *testing.T) {
	run(t, 2, func(r *Rank) {
		if r.WorldRank() == 0 {
			r.Elapse(1)
			r.Send(1, 7, "payload", 100)
		} else {
			got := r.Recv(0, 7)
			if got != "payload" {
				panic("wrong payload")
			}
			// Receiver clock must be at least the send time + flight.
			if r.Clock() < 1 {
				panic(fmt.Sprintf("receive completed before send: clock %v", r.Clock()))
			}
		}
	})
}

// TestSendrecv: both peers of a pair send before they receive — the
// exchange the benchmark's sendrecv probe times. Sends are buffered, so
// neither blocks on the other.
func TestSendrecv(t *testing.T) {
	run(t, 2, func(r *Rank) {
		peer := 1 - r.WorldRank()
		r.Send(peer, 3, r.WorldRank()*100, 8)
		if got := r.Recv(peer, 3); got != peer*100 {
			panic(fmt.Sprintf("sendrecv got %v", got))
		}
	})
}

func TestRecvMatchesByTag(t *testing.T) {
	run(t, 2, func(r *Rank) {
		if r.WorldRank() == 0 {
			r.Send(1, 1, "first", 8)
			r.Send(1, 2, "second", 8)
		} else {
			// Receive out of order by tag.
			if got := r.Recv(0, 2); got != "second" {
				panic("tag 2 mismatch")
			}
			if got := r.Recv(0, 1); got != "first" {
				panic("tag 1 mismatch")
			}
		}
	})
}

func TestRecvPreservesFIFOPerTag(t *testing.T) {
	run(t, 2, func(r *Rank) {
		if r.WorldRank() == 0 {
			for i := 0; i < 10; i++ {
				r.Send(1, 5, i, 8)
			}
		} else {
			for i := 0; i < 10; i++ {
				if got := r.Recv(0, 5); got != i {
					panic(fmt.Sprintf("out of order: got %v want %d", got, i))
				}
			}
		}
	})
}

func TestSplit(t *testing.T) {
	run(t, 6, func(r *Rank) {
		color := r.WorldRank() % 2
		sub := r.World().Split(color, r.WorldRank())
		if sub.Size() != 3 {
			panic(fmt.Sprintf("split size = %d", sub.Size()))
		}
		// Members are ordered by key (= world rank here).
		want := (sub.Rank()*2 + color)
		if got := sub.group.members[sub.Rank()]; got != want {
			panic(fmt.Sprintf("split ordering wrong: %d vs %d", got, want))
		}
		// Collectives work within the sub-communicator.
		sum := sub.AllreduceSum([]float64{1})
		if sum[0] != 3 {
			panic("sub-communicator allreduce wrong")
		}
	})
}

func TestSplitUndefined(t *testing.T) {
	run(t, 4, func(r *Rank) {
		color := 0
		if r.WorldRank() == 3 {
			color = -1 // MPI_UNDEFINED
		}
		sub := r.World().Split(color, 0)
		if r.WorldRank() == 3 {
			if sub != nil {
				panic("undefined color should return nil comm")
			}
			return
		}
		if sub.Size() != 3 {
			panic("wrong sub size")
		}
		sub.Barrier()
	})
}

func TestSplitKeyOrdering(t *testing.T) {
	run(t, 4, func(r *Rank) {
		// Reverse ordering by key.
		sub := r.World().Split(0, -r.WorldRank())
		if got := sub.group.members[0]; got != 3 {
			panic(fmt.Sprintf("rank 0 of reversed comm should be world 3, got %d", got))
		}
	})
}

// TestSplitRepeat re-splits one world: an identical re-split, a changed
// color assignment and the original pattern again each give a
// communicator of the right size and rank on which collectives work,
// also after an intervening pattern.
func TestSplitRepeat(t *testing.T) {
	for _, n := range []int{8, 96} {
		t.Run(fmt.Sprintf("ranks=%d", n), func(t *testing.T) {
			run(t, n, func(r *Rank) {
				halves := r.World().Split(r.WorldRank()%2, r.WorldRank())
				again := r.World().Split(r.WorldRank()%2, r.WorldRank())
				if again.Size() != halves.Size() || again.Rank() != halves.Rank() {
					panic("identical re-split gave a different size or rank")
				}
				if sum := again.AllreduceSum([]float64{1}); sum[0] != float64(n/2) {
					panic("collective on identical re-split communicator wrong")
				}
				thirds := r.World().Split(r.WorldRank()%3, r.WorldRank())
				wantThird := n/3 + boolToInt(r.WorldRank()%3 < n%3)
				if thirds.Size() != wantThird {
					panic(fmt.Sprintf("thirds size = %d, want %d", thirds.Size(), wantThird))
				}
				if sum := thirds.AllreduceSum([]float64{1}); sum[0] != float64(wantThird) {
					panic("collective on changed-split communicator wrong")
				}
				back := r.World().Split(r.WorldRank()%2, r.WorldRank())
				if back.Size() != n/2 || back.Rank() != halves.Rank() {
					panic("re-split after an intervening pattern is wrong")
				}
				if sum := back.AllreduceSum([]float64{1}); sum[0] != float64(n/2) {
					panic("collective on re-split communicator wrong")
				}
			})
		})
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestCollectiveMismatchPanics(t *testing.T) {
	err := Run(2, DefaultCost(), func(r *Rank) {
		if r.WorldRank() == 0 {
			r.World().Barrier()
		} else {
			r.World().AllreduceSum([]float64{1})
		}
	})
	if err == nil {
		t.Error("mismatched collectives should produce an error")
	}
}

func TestDeterministicClocks(t *testing.T) {
	final := func() []float64 {
		out := make([]float64, 8)
		var mu sync.Mutex
		_ = Run(8, DefaultCost(), func(r *Rank) {
			for i := 0; i < 10; i++ {
				r.Elapse(units.Seconds(r.WorldRank()+1) * 0.01)
				r.World().Barrier()
			}
			mu.Lock()
			out[r.WorldRank()] = float64(r.Clock())
			mu.Unlock()
		})
		return out
	}
	a, b := final(), final()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("virtual clocks not deterministic at rank %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCostModel(t *testing.T) {
	c := DefaultCost()
	if c.CollectiveCost(1, 100) != 0 {
		t.Error("single-rank collective should cost 0")
	}
	if c.CollectiveCost(2, 8) <= 0 {
		t.Error("two-rank collective should cost > 0")
	}
	// Cost grows with rank count (log tree).
	if c.CollectiveCost(1024, 8) <= c.CollectiveCost(2, 8) {
		t.Error("collective cost should grow with scale")
	}
	if c.P2PCost(1<<20) <= c.P2PCost(0) {
		t.Error("p2p cost should grow with bytes")
	}
}

func TestCollectiveCostMonotonic(t *testing.T) {
	c := DefaultCost()
	f := func(k uint8, b uint16) bool {
		k1 := int(k%64) + 2
		cost1 := c.CollectiveCost(k1, int(b))
		cost2 := c.CollectiveCost(k1*2, int(b))
		return cost2 >= cost1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestManyRanksStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	run(t, 256, func(r *Rank) {
		for i := 0; i < 5; i++ {
			sum := r.World().AllreduceSum([]float64{1})
			if sum[0] != 256 {
				panic("wrong sum at scale")
			}
		}
	})
}

func TestSendToInvalidRankPanics(t *testing.T) {
	err := Run(2, DefaultCost(), func(r *Rank) {
		if r.WorldRank() == 0 {
			r.Send(5, 0, nil, 0)
		}
	})
	if err == nil {
		t.Error("send to invalid rank should error")
	}
}

func TestSingleRankCollectives(t *testing.T) {
	run(t, 1, func(r *Rank) {
		r.World().Barrier()
		if got := r.World().AllreduceSum([]float64{4})[0]; got != 4 {
			panic("single-rank allreduce wrong")
		}
		if got := r.World().Bcast(0, "x", 1); got != "x" {
			panic("single-rank bcast wrong")
		}
	})
}
