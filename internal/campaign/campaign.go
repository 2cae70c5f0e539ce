// Package campaign is the experiment-matrix execution engine: an
// experiment enumerates independent Cells — one per (workload, scale,
// policy, seed) point, each a pure function of its own RNG seed — and
// the engine runs them on a bounded worker pool, assembling results in
// cell order so rendered reports are byte-identical regardless of the
// concurrency level.
//
// The design follows the simulator-as-campaign-engine pattern (SPARS,
// SIM-SITU): the co-simulation makes one cell cheap; the campaign layer
// makes the full evaluation matrix cheap. Cells must not share mutable
// state — determinism across -jobs settings depends on it.
//
// Cancellation is first-class: cancelling the context stops feeding new
// cells, lets in-flight cells unwind (they receive the same context),
// and marks never-started cells as skipped, so callers can render a
// partial report after Ctrl-C. A panicking cell is recovered and
// reported as that cell's error without tearing down the pool.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"seesaw/internal/telemetry"
)

// Cell is one independent unit of campaign work.
type Cell struct {
	// Key identifies the cell in progress reports and errors, e.g.
	// "fig3a/msd1d/seesaw/r2".
	Key string
	// Seed is the cell's RNG seed, carried for introspection; Run is
	// expected to be deterministic given it.
	Seed uint64
	// Run executes the cell. It must honor ctx cancellation and must not
	// touch state shared with other cells.
	Run func(ctx context.Context) (any, error)
}

// Options tune one engine invocation.
type Options struct {
	// Name labels the campaign in telemetry (usually the experiment id).
	Name string
	// Jobs bounds worker concurrency; <= 0 means runtime.GOMAXPROCS(0).
	Jobs int
	// Telemetry, when non-nil, receives live progress: per-cell status
	// counters, an in-flight gauge, duration histograms and one
	// CampaignCell event per finished cell. Nil disables instrumentation
	// at no cost.
	Telemetry *telemetry.Hub
	// WorkerState, when non-nil, is invoked once per worker goroutine
	// before it runs any cell; the returned value is visible to that
	// worker's cells through WorkerValue(ctx). It exists for per-worker
	// reusable scratch (the rollout layer's pooled environments) —
	// state that is expensive to build, must not be shared across
	// workers, and must not leak between campaigns. Cells must not let
	// worker state influence their results: determinism across -jobs
	// settings still requires every cell to be a pure function of its
	// inputs. If the value implements Close(), it is closed when the
	// worker exits.
	WorkerState func() any
}

// workerKey carries a worker's state in its cells' contexts.
type workerKey struct{}

// WorkerValue returns the value Options.WorkerState produced for the
// worker running this cell, or nil when no worker state is configured
// (including cells run outside the campaign engine).
func WorkerValue(ctx context.Context) any {
	return ctx.Value(workerKey{})
}

// jobs returns the effective worker count.
func (o Options) jobs() int {
	if o.Jobs > 0 {
		return o.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// Result is one cell's outcome, in the cell's enumeration slot.
type Result struct {
	// Key echoes the cell's key.
	Key string
	// Value is Run's return value (nil on error or skip).
	Value any
	// Err is the cell's failure: Run's error, a recovered panic, or the
	// context error for cells cancelled before starting.
	Err error
	// Started reports whether the cell's Run was invoked at all; false
	// means the campaign was cancelled while the cell was still queued.
	Started bool

	// seconds is the cell's wall-clock duration, kept for telemetry.
	seconds float64
}

// Status returns the cell's telemetry status label.
func (r Result) Status() string {
	switch {
	case !r.Started:
		return "skipped"
	case r.Err != nil:
		return "error"
	default:
		return "ok"
	}
}

// Run executes the cells on a worker pool of o.jobs() goroutines and
// returns one Result per cell, in cell order. The returned error is the
// first failed cell's error (in cell order, not completion order); when
// no cell failed but the context was cancelled, it is ctx.Err(). The
// Result slice is always complete, so callers can assemble whatever
// finished.
func Run(ctx context.Context, cells []Cell, o Options) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(cells))
	for i, c := range cells {
		results[i].Key = c.Key
	}
	if len(cells) == 0 {
		return results, ctx.Err()
	}

	jobs := o.jobs()
	if jobs > len(cells) {
		jobs = len(cells)
	}

	// Feed indices in order; stop feeding on cancellation so queued
	// cells are skipped rather than started.
	idxc := make(chan int)
	go func() {
		defer close(idxc)
		for i := range cells {
			select {
			case idxc <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var done int // finished cells, for progress reporting
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wctx := ctx
			if o.WorkerState != nil {
				ws := o.WorkerState()
				if c, ok := ws.(interface{ Close() }); ok {
					defer c.Close()
				}
				wctx = context.WithValue(ctx, workerKey{}, ws)
			}
			for i := range idxc {
				r := runCell(wctx, o, cells[i])
				results[i] = r
				// The event is emitted under the lock, so the events
				// reach the hub in the order of their Done counts.
				mu.Lock()
				done++
				o.Telemetry.CampaignCellDone(o.Name, r.Key, r.Status(), r.seconds, done, len(cells), r.Started)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	// Cells the feeder never handed out: mark skipped.
	if err := ctx.Err(); err != nil {
		for i := range results {
			if !results[i].Started && results[i].Err == nil {
				results[i].Err = err
			}
		}
	}

	// First started cell failure in cell order wins. Cells that failed
	// only because the campaign was cancelled (their error unwraps to the
	// context error) are not genuine failures; the cancellation itself is
	// reported instead, after the scan.
	ctxErr := ctx.Err()
	for _, r := range results {
		if r.Started && r.Err != nil && !(ctxErr != nil && errors.Is(r.Err, ctxErr)) {
			return results, fmt.Errorf("campaign %s: cell %s: %w", o.Name, r.Key, r.Err)
		}
	}
	return results, ctxErr
}

// runCell executes one cell with panic recovery and telemetry.
func runCell(ctx context.Context, o Options, c Cell) (res Result) {
	res.Key = c.Key
	if err := ctx.Err(); err != nil {
		// Drawn from the queue concurrently with cancellation.
		res.Err = err
		return res
	}
	res.Started = true
	o.Telemetry.CampaignCellStarted(o.Name)
	start := time.Now()
	defer func() {
		res.seconds = time.Since(start).Seconds()
		if rec := recover(); rec != nil {
			res.Value = nil
			res.Err = fmt.Errorf("cell %q panicked: %v", c.Key, rec)
		}
	}()
	res.Value, res.Err = c.Run(ctx)
	return res
}
