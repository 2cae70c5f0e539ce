package campaign

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seesaw/internal/telemetry"
)

// squareCells builds n cells whose value is a pure function of the
// index, with a tiny anti-ordered sleep so parallel completion order
// differs from enumeration order.
func squareCells(n int) []Cell {
	cells := make([]Cell, n)
	for i := 0; i < n; i++ {
		i := i
		cells[i] = Cell{
			Key:  fmt.Sprintf("cell-%02d", i),
			Seed: uint64(i),
			Run: func(ctx context.Context) (any, error) {
				time.Sleep(time.Duration((n-i)%4) * time.Millisecond)
				return i * i, nil
			},
		}
	}
	return cells
}

// TestRunOrderedDeterministic is the engine's core contract: the result
// slice is in cell order with identical values at every concurrency
// level, so reports rendered from it are byte-identical across -jobs.
func TestRunOrderedDeterministic(t *testing.T) {
	cells := squareCells(32)
	var want []Result
	for _, jobs := range []int{1, 2, 8, 64} {
		rs, err := Run(context.Background(), cells, Options{Name: "det", Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, r := range rs {
			if r.Key != cells[i].Key {
				t.Fatalf("jobs=%d: result %d key = %q, want %q", jobs, i, r.Key, cells[i].Key)
			}
			if !r.Started || r.Err != nil {
				t.Fatalf("jobs=%d: result %d not ok: %+v", jobs, i, r)
			}
			if r.Value != i*i {
				t.Fatalf("jobs=%d: result %d value = %v, want %d", jobs, i, r.Value, i*i)
			}
		}
		if want == nil {
			want = rs
			continue
		}
		for i := range rs {
			if rs[i].Key != want[i].Key || !reflect.DeepEqual(rs[i].Value, want[i].Value) {
				t.Fatalf("jobs=%d: result %d diverges from jobs=1", jobs, i)
			}
		}
	}
}

// TestBoundedConcurrency verifies the pool never runs more than Jobs
// cells at once.
func TestBoundedConcurrency(t *testing.T) {
	const jobs, n = 3, 24
	var inflight, peak atomic.Int64
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{
			Key: fmt.Sprintf("c%d", i),
			Run: func(ctx context.Context) (any, error) {
				cur := inflight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				inflight.Add(-1)
				return nil, nil
			},
		}
	}
	if _, err := Run(context.Background(), cells, Options{Name: "bound", Jobs: jobs}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > jobs {
		t.Errorf("peak in-flight = %d, want <= %d", p, jobs)
	}
}

func TestJobsDefault(t *testing.T) {
	if got := (Options{}).jobs(); got < 1 {
		t.Errorf("default jobs = %d, want >= 1", got)
	}
	if got := (Options{Jobs: -4}).jobs(); got < 1 {
		t.Errorf("jobs(-4) = %d, want >= 1", got)
	}
	if got := (Options{Jobs: 7}).jobs(); got != 7 {
		t.Errorf("jobs(7) = %d, want 7", got)
	}
}

// TestPanicRecovery: a panicking cell becomes that cell's error; the
// other cells still run, and the campaign error names the first failed
// cell in cell order (not completion order).
func TestPanicRecovery(t *testing.T) {
	cells := squareCells(6)
	cells[2].Run = func(ctx context.Context) (any, error) { panic("boom") }
	cells[4].Run = func(ctx context.Context) (any, error) { return nil, errors.New("plain failure") }
	rs, err := Run(context.Background(), cells, Options{Name: "pan", Jobs: 4})
	if err == nil || !strings.Contains(err.Error(), "cell cell-02") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want first-in-order cell-02 panic", err)
	}
	if rs[2].Err == nil || !strings.Contains(rs[2].Err.Error(), "panicked") {
		t.Errorf("cell 2 err = %v, want panic error", rs[2].Err)
	}
	if rs[4].Err == nil || rs[4].Status() != "error" {
		t.Errorf("cell 4 = %+v, want plain error", rs[4])
	}
	for _, i := range []int{0, 1, 3, 5} {
		if rs[i].Err != nil || rs[i].Value != i*i {
			t.Errorf("cell %d = %+v, want ok", i, rs[i])
		}
	}
}

// TestCancellation: cancelling mid-campaign lets in-flight cells unwind,
// skips queued cells, and returns ctx.Err() — not a cell failure.
func TestCancellation(t *testing.T) {
	const jobs, n = 2, 12
	ctx, cancel := context.WithCancel(context.Background())
	var started sync.WaitGroup
	started.Add(jobs)
	cells := make([]Cell, n)
	for i := range cells {
		i := i
		cells[i] = Cell{
			Key: fmt.Sprintf("c%02d", i),
			Run: func(ctx context.Context) (any, error) {
				started.Done()
				<-ctx.Done()
				return nil, ctx.Err()
			},
		}
	}
	go func() {
		started.Wait()
		cancel()
	}()
	rs, err := Run(ctx, cells, Options{Name: "cancel", Jobs: jobs})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if strings.Contains(fmt.Sprint(err), "cell") {
		t.Errorf("cancellation reported as cell failure: %v", err)
	}
	var ran, skipped int
	for i, r := range rs {
		if r.Key == "" {
			t.Fatalf("result %d missing key", i)
		}
		switch r.Status() {
		case "skipped":
			skipped++
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("skipped cell %d err = %v", i, r.Err)
			}
		case "error":
			ran++
		default:
			t.Errorf("cell %d status = %q after cancel", i, r.Status())
		}
	}
	if ran == 0 || skipped == 0 || ran+skipped != n {
		t.Errorf("ran=%d skipped=%d, want both nonzero summing to %d", ran, skipped, n)
	}
}

// TestTelemetry checks the live-progress contract: per-status counters,
// a drained in-flight gauge, and one CampaignCell event per cell with
// monotone done/total progress.
func TestTelemetry(t *testing.T) {
	hub := telemetry.New(telemetry.Options{})
	cells := squareCells(9)
	cells[5].Run = func(ctx context.Context) (any, error) { return nil, errors.New("sad") }
	_, err := Run(context.Background(), cells, Options{Name: "tel", Jobs: 3, Telemetry: hub})
	if err == nil {
		t.Fatal("want cell failure error")
	}
	reg := hub.Registry()
	okN := reg.Counter("seesaw_campaign_cells_total", "", "campaign", "status").With("tel", "ok").Value()
	errN := reg.Counter("seesaw_campaign_cells_total", "", "campaign", "status").With("tel", "error").Value()
	if okN != 8 || errN != 1 {
		t.Errorf("cells_total ok=%v error=%v, want 8/1", okN, errN)
	}
	if g := reg.Gauge("seesaw_campaign_inflight_cells", "", "campaign").With("tel").Value(); g != 0 {
		t.Errorf("inflight gauge = %v after completion, want 0", g)
	}
	if c := reg.Histogram("seesaw_campaign_cell_seconds", "", telemetry.CellBuckets(), "campaign").With("tel").Count(); c != 9 {
		t.Errorf("cell_seconds count = %d, want 9", c)
	}
	var evs []telemetry.CampaignCell
	for _, e := range hub.Events() {
		if cc, ok := e.(telemetry.CampaignCell); ok {
			evs = append(evs, cc)
		}
	}
	if len(evs) != 9 {
		t.Fatalf("CampaignCell events = %d, want 9", len(evs))
	}
	for i, e := range evs {
		if e.Campaign != "tel" || e.Total != 9 || e.Done != i+1 {
			t.Errorf("event %d = %+v, want done=%d total=9", i, e, i+1)
		}
	}
}

// TestNilTelemetryAndNilContext: both are explicitly allowed.
func TestNilTelemetryAndNilContext(t *testing.T) {
	rs, err := Run(nil, squareCells(3), Options{Name: "nil"}) //nolint:staticcheck
	if err != nil || len(rs) != 3 {
		t.Fatalf("rs=%v err=%v", rs, err)
	}
}

func TestEmptyCells(t *testing.T) {
	rs, err := Run(context.Background(), nil, Options{Name: "empty"})
	if err != nil || len(rs) != 0 {
		t.Fatalf("rs=%v err=%v", rs, err)
	}
}

// TestWorkerState: each worker builds its state exactly once, cells see
// their worker's value through WorkerValue, and Close runs at worker
// exit.
func TestWorkerState(t *testing.T) {
	var built, closed atomic.Int32

	cells := make([]Cell, 12)
	for i := range cells {
		cells[i] = Cell{
			Key: fmt.Sprintf("c%d", i),
			Run: func(ctx context.Context) (any, error) {
				s, ok := WorkerValue(ctx).(*workerState)
				if !ok || s == nil {
					return nil, fmt.Errorf("cell saw no worker state")
				}
				s.cells.Add(1)
				return int(s.id), nil
			},
		}
	}
	opts := Options{
		Name: "ws",
		Jobs: 3,
		WorkerState: func() any {
			return &workerState{id: built.Add(1), closed: &closed}
		},
	}
	rs, err := Run(context.Background(), cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Err != nil {
			t.Fatalf("cell %s: %v", r.Key, r.Err)
		}
	}
	if b := built.Load(); b < 1 || b > 3 {
		t.Errorf("built %d worker states, want 1..3", b)
	}
	if closed.Load() != built.Load() {
		t.Errorf("closed %d of %d worker states", closed.Load(), built.Load())
	}
}

// workerState is TestWorkerState's per-worker scratch.
type workerState struct {
	id     int32
	cells  atomic.Int32
	closed *atomic.Int32
}

func (s *workerState) Close() { s.closed.Add(1) }

// TestWorkerValueWithoutState: cells run without WorkerState see nil.
func TestWorkerValueWithoutState(t *testing.T) {
	cells := []Cell{{Key: "c", Run: func(ctx context.Context) (any, error) {
		if WorkerValue(ctx) != nil {
			return nil, fmt.Errorf("unexpected worker state")
		}
		return 1, nil
	}}}
	if _, err := Run(context.Background(), cells, Options{Name: "nows"}); err != nil {
		t.Fatal(err)
	}
}
