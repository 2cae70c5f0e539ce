package mpi

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// The scale smokes run at two sizes because the rendezvous has two
// paths: groups below shardSizeFor's threshold (2048 members) arrive
// through one mutex+cond gate, larger groups through the lock-free
// sharded arrival tree. At 1024 ranks every group takes the cond path;
// at 2048 the world group takes the tree. Under -race (make check runs
// the package that way) the 2048-rank runs are the memory-model audit
// of the sharded rendezvous — lock-free scratch writes, counter
// cascades, gate releases and their cancellation.

// TestScaleSmoke1024 drives the substrate surface at 1024 ranks, where
// every group takes the mutex+cond rendezvous.
func TestScaleSmoke1024(t *testing.T) { scaleSmoke(t, 1024) }

// TestScaleSmoke2048 drives the same surface at 2048 ranks, where the
// world group's collectives run through the sharded arrival tree.
func TestScaleSmoke2048(t *testing.T) {
	requireSharded(t, 2048)
	scaleSmoke(t, 2048)
}

// TestScaleSmokeCancel1024 cancels a 1024-rank job parked in a
// mutex+cond barrier.
func TestScaleSmokeCancel1024(t *testing.T) { scaleSmokeCancel(t, 1024) }

// TestScaleSmokeCancel2048 cancels a 2048-rank job parked in the
// sharded barrier: the gate walk must force-open every shard gate.
func TestScaleSmokeCancel2048(t *testing.T) {
	requireSharded(t, 2048)
	scaleSmokeCancel(t, 2048)
}

// requireSharded fails when an n-member group no longer takes the
// sharded path, so a raised threshold cannot silently drop the tree
// from the audit.
func requireSharded(t *testing.T, n int) {
	t.Helper()
	if shardSizeFor(n) >= n {
		t.Fatalf("a %d-member group no longer shards; raise the smoke size to cover the arrival tree", n)
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

		// Eight column sub-communicators of n/8 members: below the
		// sharding threshold, so they rendezvous through the
		// mutex+cond gate even when the world group is sharded, and
		// both paths run in one job.
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
