package insitu

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"seesaw/internal/core"
	"seesaw/internal/fault"
	"seesaw/internal/lammps"
)

// streamConfig is a 2+2 job whose ranks outrun the recorder: a 4096-atom
// box makes each recorded step take milliseconds, while replaying a step
// takes a rank microseconds, so the ranks spend the job parked on
// unpublished steps.
func streamConfig(steps int) Config {
	cfg := tinyConfig(core.NewStatic(), []string{"msd"}, steps)
	cfg.Lammps = lammps.DefaultConfig()
	cfg.Lammps.Atoms = 4096
	return cfg
}

// parkedOnRecording reports whether some goroutine is blocked in
// simTrace.wait, that is, a rank parked on an unpublished step.
func parkedOnRecording() bool {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return bytes.Contains(buf[:n], []byte("insitu.(*simTrace).wait("))
}

// expectGoroutines fails the test unless the goroutine count falls back
// to want: Run must stop and wait for every goroutine it starts,
// including the recorder.
func expectGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, want %d: a goroutine outlived Run", runtime.NumGoroutine(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runAsync starts Run on its own goroutine and returns its error
// channel.
func runAsync(ctx context.Context, cfg Config) <-chan error {
	errc := make(chan error, 1)
	go func() {
		_, err := Run(ctx, cfg)
		errc <- err
	}()
	return errc
}

// awaitErr returns Run's error, failing the test if it takes longer
// than 10 s.
func awaitErr(t *testing.T, errc <-chan error) error {
	t.Helper()
	select {
	case err := <-errc:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return: a rank parked on the recording was never woken")
		return nil
	}
}

// TestStreamedRunLeavesNoGoroutine: a normal run whose ranks wait on
// the recorder at every step completes and leaves nothing running.
func TestStreamedRunLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	res, err := Run(context.Background(), streamConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Syncs != 6 || res.FinalSimEnergy == 0 || len(res.AnalysisResults["msd"]) == 0 {
		t.Errorf("incomplete result: syncs %d, final energy %v, msd %d values",
			res.Syncs, res.FinalSimEnergy, len(res.AnalysisResults["msd"]))
	}
	expectGoroutines(t, before)
}

// TestCancelWhileParkedOnRecording: cancelling while ranks are parked
// on an unpublished step unwinds them through Rank.Fail, and Run
// returns context.Canceled.
func TestCancelWhileParkedOnRecording(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := runAsync(ctx, streamConfig(400))
	for !parkedOnRecording() {
		select {
		case err := <-errc:
			t.Fatalf("Run returned before any rank parked on the recording: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := awaitErr(t, errc); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	expectGoroutines(t, before)
}

// TestKillWhileParkedOnRecording: a kill lands while the other ranks
// are parked on an unpublished step. The recorder keeps publishing, so
// they wake, unwind at their next collective, and Run returns the
// *fault.KilledError.
func TestKillWhileParkedOnRecording(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := streamConfig(400)
	cfg.Faults = &fault.Plan{Events: []fault.Event{{Kind: fault.Kill, Node: 3, Sync: 4}}}
	err := awaitErr(t, runAsync(context.Background(), cfg))
	var ke *fault.KilledError
	if !errors.As(err, &ke) {
		t.Fatalf("err = %v, want *fault.KilledError", err)
	}
	if ke.Node != 3 || ke.Sync != 4 {
		t.Errorf("KilledError = %+v, want node 3 sync 4", ke)
	}
	expectGoroutines(t, before)
}
