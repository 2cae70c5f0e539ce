package mpi

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// The scale smokes drive the one rendezvous at the paper's largest
// partition (1024 ranks) and past it (2048): every group, whatever its
// size, arrives under its mutex and parks on a per-generation gate.
// Under -race (make check runs the package that way, and CI repeats it
// at GOMAXPROCS=4) they are the memory-model audit of that rendezvous
// at full scale — slot writes under the lock, the state published
// before the gate opens and read after it, the poison that fails parked
// members, and the gate walk that cancellation force-opens.

// TestScaleSmoke1024 drives the substrate surface at 1024 ranks.
func TestScaleSmoke1024(t *testing.T) { scaleSmoke(t, 1024) }

// TestScaleSmoke2048 drives the same surface at 2048 ranks.
func TestScaleSmoke2048(t *testing.T) { scaleSmoke(t, 2048) }

// TestScaleSmokeCancel1024 cancels a 1024-rank job parked in a barrier.
func TestScaleSmokeCancel1024(t *testing.T) { scaleSmokeCancel(t, 1024) }

// TestScaleSmokeCancel2048 cancels a 2048-rank job parked in a barrier:
// the gate walk must force-open every parked member's gate.
func TestScaleSmokeCancel2048(t *testing.T) { scaleSmokeCancel(t, 2048) }

// TestMismatchFailsParkedMembers: a member arriving with a different
// collective than the one its peers are parked in fails the whole job
// with the mismatch, instead of leaving the peers to hang.
func TestMismatchFailsParkedMembers(t *testing.T) {
	for _, n := range []int{64, 2048} {
		t.Run(fmt.Sprintf("ranks=%d", n), func(t *testing.T) {
			failParked(t, n, "collective mismatch",
				func(c *Comm) { c.Barrier() },
				func(c *Comm) { c.AllreduceSum([]float64{1}) })
		})
	}
}

// TestReducePanicFailsParkedMembers: a reduction that panics inside the
// collective (one member passes a slice of a different length) fails
// the whole job with the reduction's message.
func TestReducePanicFailsParkedMembers(t *testing.T) {
	for _, n := range []int{64, 2048} {
		t.Run(fmt.Sprintf("ranks=%d", n), func(t *testing.T) {
			failParked(t, n, "allreduce length mismatch",
				func(c *Comm) { c.AllreduceSum([]float64{1}) },
				func(c *Comm) { c.AllreduceSum([]float64{1, 2}) })
		})
	}
}

// failParked runs n ranks on the world communicator: ranks 0..n-2 issue
// good, and rank n-1 issues bad only once every other rank is parked on
// the generation's gate. Run must return promptly with rank 0's panic
// naming the fault, so the parked members failed with it rather than
// unwinding as cancelled.
func failParked(t *testing.T, n int, want string, good, bad func(c *Comm)) {
	if n > 1024 && testing.Short() {
		t.Skip("scale smoke test")
	}
	errc := make(chan error, 1)
	go func() {
		errc <- Run(n, DefaultCost(), func(r *Rank) {
			if r.WorldRank() < n-1 {
				good(r.World())
				t.Errorf("rank %d passed a failed collective", r.WorldRank())
				return
			}
			for _, peer := range r.rt.ranks[:n-1] {
				for peer.parked.Load() == nil {
					time.Sleep(time.Millisecond)
				}
			}
			bad(r.World())
		})
	}()
	select {
	case err := <-errc:
		if err == nil || !strings.HasPrefix(err.Error(), "mpi: rank 0 panicked") || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want rank 0 failing with %q", err, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after a failed collective: parked members hung")
	}
}

// scaleSmoke drives the full substrate surface at n ranks in one job:
// collectives over the world group, Split sub-communicators and
// point-to-point fan-in. The world group's mailbox wakeups and
// rendezvous must form clean happens-before chains at full scale.
func scaleSmoke(t *testing.T, n int) {
	if testing.Short() {
		t.Skip("scale smoke test")
	}
	err := Run(n, DefaultCost(), func(r *Rank) {
		w := r.World()
		me := r.WorldRank()
		for iter := 0; iter < 3; iter++ {
			w.Barrier()
			sum := w.AllreduceSum([]float64{1, float64(me)})
			if sum[0] != float64(n) || sum[1] != float64(n*(n-1)/2) {
				panic(fmt.Sprintf("allreduce-sum wrong at scale: %v", sum))
			}
			if got := w.AllreduceMax([]float64{float64(me)})[0]; got != float64(n-1) {
				panic(fmt.Sprintf("allreduce-max wrong at scale: %v", got))
			}
		}

		// Eight column sub-communicators of n/8 members, rendezvousing
		// alongside the world group in one job.
		sub := w.Split(me%8, me)
		if got := sub.AllreduceSum([]float64{1})[0]; got != float64(n/8) {
			panic(fmt.Sprintf("sub-communicator allreduce wrong: %v", got))
		}
		sub.Barrier()

		// Fan-in: every rank reports to world rank 0.
		if me == 0 {
			total := 0
			for src := 1; src < n; src++ {
				total += r.Recv(src, 5).(int)
			}
			if total != (n-1)*n/2 {
				panic(fmt.Sprintf("fan-in sum wrong: %d", total))
			}
		} else {
			r.Send(0, 5, me, 8)
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// scaleSmokeCancel parks n-1 ranks in a barrier that can never complete
// (rank 0 never arrives — it is blocked in a receive with no matching
// send) and cancels: every barrier gate and the mailbox must be
// force-opened, and the job must return the context error promptly.
func scaleSmokeCancel(t *testing.T, n int) {
	if testing.Short() {
		t.Skip("scale smoke test")
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- RunContext(ctx, n, DefaultCost(), nil, func(r *Rank) {
			if r.WorldRank() == 0 {
				r.Recv(1, 9) // never sent
				t.Error("Recv returned after cancellation")
				return
			}
			r.World().Barrier()
			t.Errorf("rank %d passed a barrier missing a member", r.WorldRank())
		})
	}()
	time.Sleep(100 * time.Millisecond) // let the ranks park
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunContext did not return after cancel: scale waiters leaked")
	}
}
