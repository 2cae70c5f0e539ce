// Command benchmark measures seesaw the way its users run it: a full
// report regeneration, `seesawctl search` grid calls (plain, and faulted
// with telemetry streaming) and 1024-node in-situ jobs. An untraced run
// gives the end-to-end metrics; a traced run gives the per-layer metrics
// from spans, an Allocate timing wrapper, runtime metrics, a CPU profile
// bucketed by module, and direct probes of each layer's public calls.
//
// Usage:
//
//	benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//	benchmark compare [--bench BENCHMARK.json] BASE NEW
//
// Each run executes the workload in a child process of its own, so peak
// memory and GC state are the workload's alone. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics. See README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupSamples is how many set-up-only children a run starts before and
// again after the measured child, to take setup_s as the median of
// these and the measured child's own set-up. Sampling at both ends of
// the run averages over the host's drift, to which process start-up is
// more sensitive than the ops are.
const setupSamples = 50

// rssPeriod is how often the parent samples a run child's resident set.
const rssPeriod = 5 * time.Millisecond

// childDeadline bounds a run's children, so the run ends within the
// 180 s a caller allows it.
const childDeadline = 170 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

// cliOptions are the flags of a benchmark run.
type cliOptions struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	child    string
}

func run(ctx context.Context, args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:])
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var o cliOptions
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: search, search-faults-telemetry, report or insitu")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 25, "how long to measure ops for")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run, which reports the per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for run records, trace files and CPU profiles")
	fs.StringVar(&o.child, "child", "", "internal: run as a workload child (setup or run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: --trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be positive")
		return 2
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if o.child != "" {
		err = runChild(ctx, w, o)
	} else {
		err = runParent(ctx, w, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runChild is a workload child: it sets up, prints "ready", and in run
// mode measures ops and prints its report as one JSON line.
func runChild(ctx context.Context, w workload, o cliOptions) error {
	ready := func() { fmt.Println("ready") }
	if o.child == "setup" {
		if _, err := w.setup(params{seed: o.seed}); err != nil {
			return err
		}
		ready()
		return nil
	}
	rep, err := runWorkload(ctx, w, runOptions{
		seed: o.seed, traced: o.trace, dir: o.out,
		budget: time.Duration(o.seconds * float64(time.Second)),
	}, ready)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// traceFlag renders the --trace value.
func traceFlag(traced bool) string {
	if traced {
		return "1"
	}
	return "0"
}

// childResult is what the parent learns from one child.
type childResult struct {
	setup  time.Duration // exec to "ready"
	report *runReport    // nil for set-up-only children
	maxRSS int64         // ru_maxrss, bytes
	rss    []float64     // resident set samples, MiB
}

// sampleRSS polls the resident set size of process pid every rssPeriod
// until stop is closed, then sends the samples in MiB.
func sampleRSS(pid int, stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var mib []float64
		path := fmt.Sprintf("/proc/%d/statm", pid)
		page := float64(os.Getpagesize()) / (1 << 20)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- mib
				return
			case <-t.C:
				b, err := os.ReadFile(path)
				if err != nil {
					continue // not started yet, or exiting
				}
				if f := strings.Fields(string(b)); len(f) > 1 {
					if n, err := strconv.ParseFloat(f[1], 64); err == nil {
						mib = append(mib, n*page)
					}
				}
			}
		}
	}()
	return out
}

// spawn runs the benchmark binary as a child in the given mode and
// waits for it to exit.
func spawn(ctx context.Context, exe string, o cliOptions, mode string) (childResult, error) {
	args := []string{"--child", mode, "--workload", o.workload,
		"--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", traceFlag(o.trace),
		"--out", o.out}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childResult{}, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return childResult{}, err
	}
	var res childResult
	stopRSS := make(chan struct{})
	samples := sampleRSS(cmd.Process.Pid, stopRSS)
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 256<<20)
	var last []byte
	for sc.Scan() {
		if res.setup == 0 && sc.Text() == "ready" {
			res.setup = time.Since(t0)
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	close(stopRSS)
	res.rss = <-samples
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return res, fmt.Errorf("%s child: %w", mode, err)
	}
	if scanErr != nil {
		return res, fmt.Errorf("%s child output: %w", mode, scanErr)
	}
	if res.setup == 0 {
		return res, fmt.Errorf("%s child exited before it was ready", mode)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.maxRSS = int64(ru.Maxrss) * 1024 // kilobytes on Linux
	}
	if mode == "run" {
		res.report = new(runReport)
		if err := json.Unmarshal(last, res.report); err != nil {
			return res, fmt.Errorf("run child report: %w", err)
		}
	}
	return res, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// machineInfo records where and how a run was taken.
type machineInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Jobs       int    `json:"jobs"`
}

func currentMachine() machineInfo {
	m := machineInfo{
		CPU: runtime.GOARCH, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC: os.Getenv("GOGC"), GoVersion: runtime.Version(), Commit: "unknown", Jobs: jobs,
	}
	if m.GOGC == "" {
		m.GOGC = "default"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// record is the full account of one run, written under --out for the
// comparator: the printed result plus per-op distributions and the
// machine.
type record struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Started   time.Time          `json:"started"`
	Machine   machineInfo        `json:"machine"`
	Result    result             `json:"result"`
	Summaries map[string]summary `json:"summaries"`
	// Digest is the output digest of the run's first successful op.
	Digest string `json:"digest"`
	// PeakRSSMB is the run child's ru_maxrss in MiB.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Unreached names the per-layer metrics of layers the workload does
	// not reach; a traced run reports them as 0.
	Unreached []string `json:"unreached,omitempty"`
}

// runParent is one benchmark run: set-up samples, then the measured
// child, then the metrics.
func runParent(ctx context.Context, w workload, o cliOptions) error {
	ctx, cancel := context.WithTimeout(ctx, childDeadline)
	defer cancel()
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rec := record{Workload: w.name, Seed: o.seed, Trace: o.trace,
		Seconds: o.seconds, Started: time.Now().UTC(), Machine: currentMachine()}

	var setups []float64
	sampleSetup := func() error {
		if o.trace {
			return nil
		}
		for i := 0; i < setupSamples; i++ {
			c, err := spawn(ctx, exe, o, "setup")
			if err != nil {
				return err
			}
			setups = append(setups, c.setup.Seconds())
		}
		return nil
	}
	if err := sampleSetup(); err != nil {
		return err
	}
	c, err := spawn(ctx, exe, o, "run")
	if err != nil {
		return err
	}
	rep := c.report
	setups = append(setups, c.setup.Seconds())
	if err := sampleSetup(); err != nil {
		return err
	}

	failed := failedOps(rep.Ops)
	rec.Result = result{Correct: failed == 0 && len(rep.Ops) > 0, Attempted: len(rep.Ops), Failed: failed}
	for _, op := range rep.Ops {
		if op.Err != "" {
			fmt.Fprintf(os.Stderr, "benchmark: %s op failed: %s\n", w.name, op.Err)
		} else if rec.Digest == "" {
			rec.Digest = op.Digest
		}
	}
	rec.PeakRSSMB = float64(c.maxRSS) / (1 << 20)
	rec.Result.Metrics, rec.Summaries, rec.Unreached = runMetrics(rep, o.trace, setups, c.rss)
	if o.trace {
		fmt.Fprintf(os.Stderr, "not reached by %s, reported as 0: %s\n", w.name, strings.Join(rec.Unreached, ", "))
		writeSelfTimeTable(os.Stderr, w.name, rep.Spans)
		if err := writeJSON(filepath.Join(o.out, "trace-"+w.name+".json"), rep.Spans); err != nil {
			return err
		}
	}

	fmt.Fprintf(os.Stderr, "workload %s seed %d: %d ops, %d failed, peak RSS %.1f MiB, machine %s (%d CPUs, Go %s, commit %.12s)\n",
		w.name, o.seed, len(rep.Ops), failed, rec.PeakRSSMB, rec.Machine.CPU, rec.Machine.NProc, rec.Machine.GoVersion, rec.Machine.Commit)
	for _, m := range endToEnd {
		if s, ok := rec.Summaries[m.name]; ok {
			fmt.Fprintf(os.Stderr, "  %-16s value %-12.6g mean %-12.6g median %-12.6g q1 %-12.6g q3 %-12.6g max %-12.6g n %d\n",
				m.name, rec.Result.Metrics[m.name].Value, s.Mean, s.Median, s.Q1, s.Q3, s.Max, s.N)
		}
	}
	name := fmt.Sprintf("%s-seed%d-trace%s-%d.json", w.name, o.seed, traceFlag(o.trace), rec.Started.UnixNano())
	if err := writeJSON(filepath.Join(o.out, "results", name), rec); err != nil {
		return err
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeJSON writes v as indented JSON to path, creating its directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
