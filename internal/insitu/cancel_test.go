package insitu

import (
	"context"
	"errors"
	"testing"
	"time"

	"seesaw/internal/core"
)

// TestRunCancelledMidFlight: cancelling while rank goroutines are deep
// in the step loop must unwind all of them — including ranks blocked at
// collectives, in frame receives or on a step the recorder has not yet
// published — and surface ctx.Err(). The ranks start together with the
// recorder, so the cancellation lands while they run. Run with -race
// this also proves the unwind leaves no rank goroutine behind touching
// shared result state.
func TestRunCancelledMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		// A long job: far more steps than the recorder reaches in 30 ms,
		// so cancellation lands mid-run.
		_, err := Run(ctx, tinyConfig(core.NewStatic(), []string{"msd", "rdf"}, 50000))
		errc <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancel: rank goroutines leaked")
	}
}

// TestRunPreCancelled: an already-cancelled context never starts ranks.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, tinyConfig(core.NewStatic(), []string{"msd"}, 10)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
