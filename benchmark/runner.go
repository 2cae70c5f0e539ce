package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"syscall"
	"time"
)

// runOptions configure one in-process run of a workload.
type runOptions struct {
	seed   uint64
	quick  bool
	budget time.Duration // how long ops are measured for
	traced bool
	dir    string // where a traced run writes its CPU profiles
}

// opRecord is one op's measurement.
type opRecord struct {
	Traced bool               `json:"traced,omitempty"`
	Wall   float64            `json:"wall_s"`
	CPU    float64            `json:"cpu_s"`
	Digest string             `json:"digest,omitempty"`
	Err    string             `json:"err,omitempty"`
	Layer  map[string]float64 `json:"layer,omitempty"`
}

// runReport is everything one run of a workload measured. A workload
// child sends it to the parent as one JSON line.
type runReport struct {
	Points   int                `json:"points"`
	Ops      []opRecord         `json:"ops"`
	Spans    []span             `json:"spans,omitempty"`
	CPUShare map[string]float64 `json:"cpu_share,omitempty"`
	Probes   map[string]float64 `json:"probes,omitempty"`
}

// probeReserve is the part of a traced run's budget the probes take
// after the ops.
const probeReserve = 6 * time.Second

//go:embed pinned.json
var pinnedJSON []byte

// pinnedDigests returns the output digests of every workload at seed 1
// and full size, as the seed commit produced them.
func pinnedDigests() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(pinnedJSON, &m); err != nil {
		return nil, fmt.Errorf("pinned.json: %w", err)
	}
	return m, nil
}

// runWorkload sets the workload up, calls ready, and then runs ops back
// to back, each from a cold start, for about the budget: a closed loop
// with one client. A traced run alternates untraced and traced ops,
// so the two can be compared within one process, and runs the layer
// probes after the last op. Every op's output is checked.
func runWorkload(ctx context.Context, w workload, o runOptions, ready func()) (*runReport, error) {
	var tr *tracer
	if o.traced {
		tr = newTracer(w.name)
		setActiveTracer(tr)
		defer setActiveTracer(nil)
	}
	plain, err := w.setup(params{seed: o.seed, quick: o.quick})
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	traced := plain
	if o.traced {
		if traced, err = w.setup(params{seed: o.seed, quick: o.quick, tr: tr}); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
	}
	if ready != nil {
		ready()
	}

	rep := &runReport{Points: plain.points}
	budget, minOps := o.budget, 1
	if o.traced {
		budget, minOps = budget-probeReserve, 2
	}
	var profiles []string
	// The first op fixes the op count: as many ops as its time fits in
	// the budget, rounded up. Counting rather than watching the clock
	// keeps a run's op count from flipping with small timing changes.
	n := minOps
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var rec opRecord
		if o.traced && i%2 == 1 {
			prof := filepath.Join(o.dir, fmt.Sprintf("cpu-%s-%d.pprof", w.name, i))
			rec, err = runOp(ctx, traced, tr, i, prof)
			profiles = append(profiles, prof)
		} else {
			rec, err = runOp(ctx, plain, nil, i, "")
		}
		if err != nil {
			return nil, err
		}
		rep.Ops = append(rep.Ops, rec)
		if i == 0 && rec.Wall > 0 {
			n = max(minOps, int(math.Ceil(budget.Seconds()/rec.Wall)))
		}
	}

	want := ""
	if o.seed == 1 && !o.quick {
		pinned, err := pinnedDigests()
		if err != nil {
			return nil, err
		}
		want = pinned[w.name]
	}
	checkOutputs(rep.Ops, want)

	if o.traced {
		rep.Spans = tr.spans
		if rep.CPUShare, err = cpuShare(ctx, profiles); err != nil {
			return nil, err
		}
		if rep.Probes, err = runProbes(ctx, o.quick); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runOp runs and times op i. When tr is non-nil the op is traced: a CPU
// profile written to prof, runtime metrics read around it, spans and
// Allocate timings recorded; the profile starts and stops outside the
// timed interval. An op error is recorded on the op, not returned: it
// counts as a failed op.
func runOp(ctx context.Context, p *plan, tr *tracer, i int, prof string) (opRecord, error) {
	var rt0 runtimeSample
	var f *os.File
	if tr != nil {
		var err error
		if f, err = os.Create(prof); err != nil {
			return opRecord{}, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return opRecord{}, err
		}
		tr.mu.Lock()
		tr.op = i
		tr.mu.Unlock()
		rt0 = readRuntime()
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	sp := tr.begin("op", 0)
	out, opErr := p.run(ctx, sp)
	tr.end(sp)
	wall := time.Since(t0)
	rec := opRecord{Traced: tr != nil, Wall: wall.Seconds(), CPU: (cpuTime() - cpu0).Seconds(),
		Digest: out.digest, Layer: out.layer}
	if tr != nil {
		rt1 := readRuntime()
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return opRecord{}, err
		}
		layer := runtimeDelta(rt0, rt1)
		for k, v := range out.layer {
			layer[k] = v
		}
		if as := tr.takeAllocate(); as.calls > 0 {
			layer["core.allocate_calls"] = float64(as.calls)
			layer["core.allocate_us_p50"] = as.p50us
			layer["core.allocate_us_p99"] = as.p99us
			layer["core.allocate_s_per_op"] = as.sumS
		}
		rec.Layer = layer
	}
	if opErr != nil {
		if ctx.Err() != nil {
			return rec, opErr
		}
		rec.Err = opErr.Error()
	}
	return rec, nil
}

// checkOutputs marks as failed every op whose output digest differs
// from want or, when want is empty, from the first digest of the run.
func checkOutputs(ops []opRecord, want string) {
	for i := range ops {
		op := &ops[i]
		if op.Err != "" {
			continue
		}
		if want == "" {
			want = op.Digest
		}
		if op.Digest != want {
			op.Err = fmt.Sprintf("output digest %.16s differs from %.16s", op.Digest, want)
		}
	}
}

// failedOps counts the ops that failed, including output mismatches.
func failedOps(ops []opRecord) int {
	n := 0
	for _, op := range ops {
		if op.Err != "" {
			n++
		}
	}
	return n
}
