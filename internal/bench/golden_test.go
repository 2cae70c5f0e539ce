package bench

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestReportByteIdenticalAcrossJobs is the determinism gate for the
// campaign engine: the full report, generated once sequentially and once
// on an 8-worker pool, must be byte-identical. Cells are pure functions
// of their seeds and results are assembled in enumeration order, so no
// scheduling artifact may leak into the output.
func TestReportByteIdenticalAcrossJobs(t *testing.T) {
	render := func(jobs int) []byte {
		t.Helper()
		o := fastOptions()
		o.Jobs = jobs
		var buf bytes.Buffer
		if err := WriteReport(context.Background(), &buf, o, nil); err != nil {
			t.Fatalf("WriteReport(jobs=%d): %v", jobs, err)
		}
		return buf.Bytes()
	}
	seq := render(1)
	par := render(8)
	if !bytes.Equal(seq, par) {
		line := 1
		for i := 0; i < len(seq) && i < len(par); i++ {
			if seq[i] != par[i] {
				t.Fatalf("reports diverge at byte %d (line %d): jobs=1 has %q, jobs=8 has %q",
					i, line, excerpt(seq, i), excerpt(par, i))
			}
			if seq[i] == '\n' {
				line++
			}
		}
		t.Fatalf("report lengths differ: jobs=1 %d bytes, jobs=8 %d bytes", len(seq), len(par))
	}
	if len(seq) < 1000 {
		t.Errorf("full report suspiciously small: %d bytes", len(seq))
	}
}

// TestReportByteIdenticalAcrossGOMAXPROCS crosses the worker-pool axis
// with the scheduler-parallelism axis: the report rendered with jobs∈{1,8}
// under GOMAXPROCS∈{1,8} must produce one identical byte stream. True
// parallelism changes which rank goroutines run simultaneously —
// memoized analysis replay must stay invisible to the output.
func TestReportByteIdenticalAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the report four times")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var ref []byte
	var refDesc string
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		for _, jobs := range []int{1, 8} {
			o := fastOptions()
			o.Jobs = jobs
			var buf bytes.Buffer
			if err := WriteReport(context.Background(), &buf, o, nil); err != nil {
				t.Fatalf("WriteReport(GOMAXPROCS=%d, jobs=%d): %v", procs, jobs, err)
			}
			desc := fmt.Sprintf("GOMAXPROCS=%d jobs=%d", procs, jobs)
			if ref == nil {
				ref, refDesc = buf.Bytes(), desc
				continue
			}
			if got := buf.Bytes(); !bytes.Equal(got, ref) {
				i := 0
				for i < len(got) && i < len(ref) && got[i] == ref[i] {
					i++
				}
				t.Fatalf("report differs between %s and %s at byte %d: %q vs %q",
					refDesc, desc, i, excerpt(ref, i), excerpt(got, i))
			}
		}
	}
}

// TestFaultsByteIdenticalAcrossJobs pins determinism for the fault
// path specifically: fault application rides the per-interval clock
// inside each cell, so a kill or excursion must not introduce any
// scheduling-dependent state even when cells run on 8 workers.
func TestFaultsByteIdenticalAcrossJobs(t *testing.T) {
	e, ok := Get("faults")
	if !ok {
		t.Fatal("faults experiment not registered")
	}
	render := func(jobs int) []byte {
		t.Helper()
		o := fastOptions()
		o.Jobs = jobs
		var buf bytes.Buffer
		if err := e.Run(context.Background(), o, &buf); err != nil {
			t.Fatalf("faults(jobs=%d): %v", jobs, err)
		}
		return buf.Bytes()
	}
	seq := render(1)
	par := render(8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("faults reports differ between jobs=1 and jobs=8:\n%s\n---\n%s", seq, par)
	}
}

// TestTopologiesByteIdenticalAcrossJobs pins determinism for the
// workflow engine: the topologies campaign spans all three placements
// plus the DAG pipeline, so time-shared half-node domains, in-transit
// staging phases and fan-in receive ordering must all be invisible to
// worker-pool scheduling.
func TestTopologiesByteIdenticalAcrossJobs(t *testing.T) {
	e, ok := Get("topologies")
	if !ok {
		t.Fatal("topologies experiment not registered")
	}
	render := func(jobs int) []byte {
		t.Helper()
		o := fastOptions()
		o.Jobs = jobs
		var buf bytes.Buffer
		if err := e.Run(context.Background(), o, &buf); err != nil {
			t.Fatalf("topologies(jobs=%d): %v", jobs, err)
		}
		return buf.Bytes()
	}
	seq := render(1)
	par := render(8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("topologies reports differ between jobs=1 and jobs=8:\n%s\n---\n%s", seq, par)
	}
}

// TestSearchByteIdenticalAcrossJobs pins determinism for the rollout
// path: the search experiment fans every (scenario, policy) point over
// rollout.Batch, where each worker replays pooled episodes on its own
// Env — worker scheduling must not leak into the ranking.
func TestSearchByteIdenticalAcrossJobs(t *testing.T) {
	e, ok := Get("search")
	if !ok {
		t.Fatal("search experiment not registered")
	}
	render := func(jobs int) []byte {
		t.Helper()
		o := fastOptions()
		o.Jobs = jobs
		var buf bytes.Buffer
		if err := e.Run(context.Background(), o, &buf); err != nil {
			t.Fatalf("search(jobs=%d): %v", jobs, err)
		}
		return buf.Bytes()
	}
	seq := render(1)
	par := render(8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("search reports differ between jobs=1 and jobs=8:\n%s\n---\n%s", seq, par)
	}
}

// TestHeteroByteIdenticalAcrossJobs pins determinism for the
// device-class path: heterogeneous cells thread per-node capabilities
// through cluster construction and the allocators' waterfill division,
// so class weights and per-class clamps must be pure functions of the
// cell's seeds even when cells run on 8 workers.
func TestHeteroByteIdenticalAcrossJobs(t *testing.T) {
	e, ok := Get("hetero")
	if !ok {
		t.Fatal("hetero experiment not registered")
	}
	render := func(jobs int) []byte {
		t.Helper()
		o := fastOptions()
		o.Jobs = jobs
		var buf bytes.Buffer
		if err := e.Run(context.Background(), o, &buf); err != nil {
			t.Fatalf("hetero(jobs=%d): %v", jobs, err)
		}
		return buf.Bytes()
	}
	seq := render(1)
	par := render(8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("hetero reports differ between jobs=1 and jobs=8:\n%s\n---\n%s", seq, par)
	}
}

// TestReportMatchesSeedGolden pins the full experiment report to the
// bytes the seed runtime produced (testdata/report_golden.md, captured
// before the sharded-rendezvous rewrite of internal/mpi). Virtual-time
// results are defined by the communication structure alone — clock
// merging is max(arrival)+cost, order-independent by construction — so
// no substrate optimization may move a single byte of this document.
func TestReportMatchesSeedGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "report_golden.md"))
	if err != nil {
		t.Fatalf("reading golden report: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteReport(context.Background(), &buf, fastOptions(), nil); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	got := buf.Bytes()
	if !bytes.Equal(got, want) {
		n := len(got)
		if len(want) < n {
			n = len(want)
		}
		for i := 0; i < n; i++ {
			if got[i] != want[i] {
				t.Fatalf("report diverges from seed golden at byte %d: got %q, want %q",
					i, excerpt(got, i), excerpt(want, i))
			}
		}
		t.Fatalf("report length differs from seed golden: got %d bytes, want %d", len(got), len(want))
	}
}

func excerpt(b []byte, at int) string {
	end := at + 40
	if end > len(b) {
		end = len(b)
	}
	return string(b[at:end])
}

// TestWriteReportCancelled: a dead context yields an error and a partial
// document whose last code fence is still closed (valid Markdown).
func TestWriteReportCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := WriteReport(ctx, &buf, fastOptions(), nil)
	if err == nil {
		t.Fatal("WriteReport on a cancelled context succeeded")
	}
	out := buf.String()
	if strings.Count(out, "```")%2 != 0 {
		t.Errorf("partial report leaves an unclosed code fence:\n%s", out)
	}
}

func TestOptionsStepsRunsOverrides(t *testing.T) {
	var o Options
	if got := o.steps(400); got != 400 {
		t.Errorf("zero Steps: steps(400) = %d, want the default", got)
	}
	if got := o.runs(7); got != 7 {
		t.Errorf("zero Runs: runs(7) = %d, want the default", got)
	}
	o = Options{Steps: 25, Runs: 2}
	if got := o.steps(400); got != 25 {
		t.Errorf("steps(400) = %d, want the 25 override", got)
	}
	if got := o.runs(7); got != 2 {
		t.Errorf("runs(7) = %d, want the 2 override", got)
	}
}

func TestUnknownExperimentErrorListsIDs(t *testing.T) {
	err := UnknownExperimentError("fig99")
	if err == nil {
		t.Fatal("nil error for unknown id")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"fig99"`) {
		t.Errorf("error does not name the bad id: %s", msg)
	}
	// Every real id must be offered as a suggestion.
	for _, id := range IDs() {
		if !strings.Contains(msg, id) {
			t.Errorf("error does not list %s: %s", id, msg)
		}
	}
}
