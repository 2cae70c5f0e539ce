// Command seesawctl regenerates the paper's tables and figures on the
// simulated platform.
//
// Usage:
//
//	seesawctl list                 # list experiment ids
//	seesawctl experiments          # list experiments grouped into families
//	seesawctl run <id> [flags]     # run one experiment (fig1..fig9b, table1, table2, abl-*)
//	seesawctl all [flags]          # run every experiment in report order
//	seesawctl trace [flags]        # per-synchronization CSV of one policy cell
//	seesawctl job <file.json>      # run a JSON-described job (see internal/jobfile)
//	seesawctl serve [flags]        # run an experiment loop and serve live metrics over HTTP
//	seesawctl policies             # list the registered power policies
//	seesawctl search [flags]       # batched policy search over a rollout grid
//
// Flags:
//
//	-steps N          override Verlet steps per run (default 400, the paper's setting)
//	-runs N           override repeated jobs per cell (default: 3, Table I: 7)
//	-seed N           base seed for all jobs
//	-jobs N           max experiment cells in flight (default: GOMAXPROCS)
//	-telemetry FILE   stream telemetry events to FILE as JSON Lines
//
// Ctrl-C (or SIGTERM) cancels the run: in-flight cells unwind, queued
// cells are skipped, any partial report is flushed, and the process
// exits non-zero.
//
// trace flags: -policy, -analyses, -nodes, -dim, -j, -w, -faults,
// -classes (device-class map, e.g. "0-63:cpu,64-127:gpu"), -topology
// (space-shared, time-shared, in-transit or dag; see -h).
// serve flags: -addr, -id, plus the shared flags above (see -h).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"seesaw/internal/bench"
	"seesaw/internal/cosim"
	"seesaw/internal/jobfile"
	"seesaw/internal/machine"
	"seesaw/internal/policy"
	"seesaw/internal/telemetry"
	"seesaw/internal/trace"
	"seesaw/internal/workflow"
	"seesaw/internal/workload"
)

// openHub opens a telemetry hub streaming events to path as JSON Lines.
// An empty path returns a nil hub (instrumentation disabled) and a no-op
// closer. The closer flushes the stream and reports any sink error.
func openHub(path string) (*telemetry.Hub, func(), error) {
	if path == "" {
		return nil, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriter(f)
	hub := telemetry.New(telemetry.Options{Sink: bw})
	closer := func() {
		if err := hub.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "seesawctl: telemetry sink:", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "seesawctl: telemetry sink:", err)
		}
		if n := hub.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "seesawctl: telemetry: %d events dropped\n", n)
		}
	}
	return hub, closer, nil
}

// mustOpenHub is openHub with CLI error handling.
func mustOpenHub(path string) (*telemetry.Hub, func()) {
	hub, closer, err := openHub(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seesawctl:", err)
		os.Exit(1)
	}
	return hub, closer
}

func main() {
	// Ctrl-C cancels the context; a second Ctrl-C kills the process
	// outright (stop() restores default signal handling after the first).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

// run dispatches the subcommand and returns the process exit code. Kept
// separate from main so deferred cleanups (telemetry flush) run before
// os.Exit.
func run(ctx context.Context, args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	steps := fs.Int("steps", 0, "override Verlet steps per run (0 = experiment default)")
	runs := fs.Int("runs", 0, "override repeated jobs per cell (0 = experiment default)")
	seed := fs.Uint64("seed", 1, "base seed")
	jobs := fs.Int("jobs", 0, "max experiment cells in flight (0 = GOMAXPROCS)")
	outPath := fs.String("o", "", "write a Markdown report to this file instead of stdout (all only)")
	telPath := fs.String("telemetry", "", "stream telemetry events to this file as JSON Lines")

	switch cmd {
	case "list":
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
	case "experiments":
		for _, f := range bench.Families() {
			fmt.Printf("%s — %s\n", f.Name, f.Description)
			for _, id := range f.IDs {
				e, _ := bench.Get(id)
				fmt.Printf("  %-14s %s\n", id, e.Title)
			}
		}
	case "run":
		if len(args) < 2 {
			fmt.Fprintln(os.Stderr, "seesawctl run <id> [flags]")
			return 2
		}
		id := args[1]
		if err := fs.Parse(args[2:]); err != nil {
			return 2
		}
		e, ok := bench.Get(id)
		if !ok {
			fmt.Fprintln(os.Stderr, bench.UnknownExperimentError(id))
			return 1
		}
		hub, closeHub := mustOpenHub(*telPath)
		defer closeHub()
		o := bench.Options{Steps: *steps, Runs: *runs, BaseSeed: *seed, Jobs: *jobs, Telemetry: hub}
		if err := runOne(ctx, e, o); err != nil {
			return fail(ctx, err)
		}
	case "all":
		if err := fs.Parse(args[1:]); err != nil {
			return 2
		}
		hub, closeHub := mustOpenHub(*telPath)
		defer closeHub()
		o := bench.Options{Steps: *steps, Runs: *runs, BaseSeed: *seed, Jobs: *jobs, Telemetry: hub}
		if *outPath != "" {
			if err := writeReport(ctx, *outPath, o); err != nil {
				return fail(ctx, err)
			}
			return 0
		}
		for _, e := range bench.All() {
			if err := runOne(ctx, e, o); err != nil {
				return fail(ctx, err)
			}
		}
	case "selftest":
		if err := fs.Parse(args[1:]); err != nil {
			return 2
		}
		ok, err := bench.RunSelfTest(ctx, bench.Options{Steps: *steps, Runs: *runs, BaseSeed: *seed, Jobs: *jobs}, os.Stdout)
		if err != nil {
			return fail(ctx, err)
		}
		if !ok {
			return 1
		}
	case "trace":
		return runTrace(ctx, args[1:])
	case "job":
		return runJob(ctx, args[1:])
	case "serve":
		return runServe(ctx, args[1:])
	case "policies":
		for _, info := range policy.Infos() {
			fmt.Printf("%-12s %s\n", info.Name, info.Description)
		}
	case "search":
		return runSearch(ctx, args[1:])
	default:
		usage()
		return 2
	}
	return 0
}

// fail reports err on stderr and picks the exit code: 130 for an
// interrupted run (the shell convention for SIGINT), 1 otherwise.
func fail(ctx context.Context, err error) int {
	fmt.Fprintln(os.Stderr, "seesawctl:", err)
	if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		return 130
	}
	return 1
}

// runJob loads a JSON job description, runs it, and prints the summary
// (or the full per-synchronization CSV with -csv).
func runJob(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("job", flag.ExitOnError)
	csv := fs.Bool("csv", false, "emit the per-synchronization log as CSV")
	telPath := fs.String("telemetry", "", "stream telemetry events to this file as JSON Lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "seesawctl job [-csv] [-telemetry FILE] <job.json>")
		return 2
	}
	j, err := jobfile.LoadFile(fs.Arg(0))
	if err != nil {
		return fail(ctx, err)
	}
	hub, closeHub := mustOpenHub(*telPath)
	defer closeHub()
	log, summary, err := execJob(ctx, j, hub)
	if err != nil {
		return fail(ctx, err)
	}
	if *csv {
		if err := log.WriteCSV(os.Stdout); err != nil {
			return fail(ctx, err)
		}
		return 0
	}
	fmt.Println(summary)
	return 0
}

// execJob runs j on the driver its topology selects: the classic
// two-partition driver (internal/cosim) for space-shared jobs, the
// workflow-graph engine (internal/workflow) for the others. It returns
// the per-synchronization log and a one-line summary of the run.
func execJob(ctx context.Context, j *jobfile.Job, hub *telemetry.Hub) (*trace.SyncLog, string, error) {
	if j.Topology != "" && j.Topology != "space-shared" {
		wcfg, err := j.BuildWorkflow()
		if err != nil {
			return nil, "", err
		}
		wcfg.Telemetry = hub
		res, err := workflow.Run(ctx, wcfg)
		if err != nil {
			return nil, "", err
		}
		return res.SyncLog, fmt.Sprintf("topology %s with policy %s: total %.1f s, energy %.1f kJ, mean slack %.2f%%, transfer %.1f s",
			j.Topology, wcfg.Policy.Name(),
			float64(res.MainLoopTime), float64(res.TotalEnergy)/1000,
			res.SyncLog.MeanSlackFrom(10)*100, float64(res.TransferSeconds)), nil
	}
	cfg, err := j.Build()
	if err != nil {
		return nil, "", err
	}
	cfg.Telemetry = hub
	res, err := cosim.Run(ctx, cfg)
	if err != nil {
		return nil, "", err
	}
	last := res.SyncLog.Records[res.SyncLog.Len()-1]
	return res.SyncLog, fmt.Sprintf("policy %s on %d nodes: total %.1f s, energy %.1f kJ, mean slack %.2f%%, final caps %.1f/%.1f W",
		cfg.Policy.Name(), cfg.Spec.SimNodes+cfg.Spec.AnaNodes,
		float64(res.TotalTime), float64(res.TotalEnergy)/1000,
		res.SyncLog.MeanSlackFrom(10)*100, float64(last.SimCap), float64(last.AnaCap)), nil
}

// runTrace emits the per-synchronization log of one co-simulated cell as
// CSV — the raw data behind the Figure 4 and Figure 5 plots. The flags
// fill a job description, which runs exactly as `seesawctl job` runs
// it; -seed N is the job's seed N and run seed N+1.
func runTrace(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	policyName := fs.String("policy", "seesaw", "power policy: "+strings.Join(policy.Names(), ", "))
	analyses := fs.String("analyses", "msd", "comma-separated analyses, or 'all' for every analysis the problem size allows")
	nodes := fs.Int("nodes", 128, "total nodes (split evenly)")
	dim := fs.Int("dim", 16, "problem size")
	syncEvery := fs.Int("j", 1, "synchronize every j-th step")
	w := fs.Int("w", 1, "reallocate every w synchronizations")
	steps := fs.Int("steps", 400, "Verlet steps")
	capPer := fs.Float64("cap", 110, "per-node budget (W)")
	seed := fs.Uint64("seed", 1, "job seed (>= 1)")
	faults := fs.String("faults", "", "fault plan, e.g. 'kill:3@40,slow:0@10x2+20' (see internal/fault)")
	classes := fs.String("classes", "", "device-class map, e.g. '0-63:cpu,64-127:gpu' (presets: "+strings.Join(machine.PresetNames(), ", ")+")")
	topology := fs.String("topology", "", "workflow topology: space-shared (the default, on the classic driver), or time-shared, in-transit or dag on the workflow-graph engine")
	telPath := fs.String("telemetry", "", "stream telemetry events to this file as JSON Lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// A job file reads a zero seed, j, window or cap and an empty policy
	// as its defaults; on the command line they are errors.
	switch {
	case *seed == 0:
		return fail(ctx, errors.New("trace: -seed must be >= 1"))
	case *syncEvery < 1:
		return fail(ctx, fmt.Errorf("trace: -j must be >= 1, got %d", *syncEvery))
	case *w < 1:
		return fail(ctx, fmt.Errorf("trace: -w must be >= 1, got %d", *w))
	case *capPer <= 0:
		return fail(ctx, fmt.Errorf("trace: -cap must be positive, got %g", *capPer))
	case *policyName == "":
		return fail(ctx, errors.New("trace: -policy must name a policy"))
	}
	var tasks []workload.AnalysisTask
	if *analyses == "all" {
		tasks = workload.AllAnalysesForDim(*dim)
	} else {
		tasks = workload.Tasks(strings.Split(*analyses, ",")...)
	}
	j := &jobfile.Job{
		Nodes: *nodes, Dim: *dim, J: *syncEvery, Steps: *steps,
		Policy: *policyName, Window: *w, CapPerNodeW: *capPer,
		Seed: *seed, RunSeed: *seed + 1,
		Faults: *faults, Classes: *classes, Topology: *topology,
	}
	for _, t := range tasks {
		j.Analyses = append(j.Analyses, jobfile.Analysis{Name: t.Name, Interval: t.Interval})
	}
	if err := j.Validate(); err != nil {
		return fail(ctx, err)
	}
	hub, closeHub := mustOpenHub(*telPath)
	defer closeHub()
	log, summary, err := execJob(ctx, j, hub)
	if err != nil {
		return fail(ctx, err)
	}
	if err := log.WriteCSV(os.Stdout); err != nil {
		return fail(ctx, err)
	}
	fmt.Fprintln(os.Stderr, "seesawctl trace:", summary)
	return 0
}

// writeReport runs every experiment and writes a Markdown document with
// one fenced section per artifact. On cancellation the partially
// written report is preserved (bench.WriteReport closes the open fence)
// and the error is reported to the caller.
func writeReport(ctx context.Context, path string, o bench.Options) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	written := func(id string) { fmt.Fprintf(os.Stderr, "seesawctl: %s done\n", id) }
	if err := bench.WriteReport(ctx, f, o, written); err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "seesawctl: interrupted; partial report left in %s\n", path)
		}
		f.Close()
		return err
	}
	return f.Close()
}

func runOne(ctx context.Context, e bench.Experiment, o bench.Options) error {
	fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
	if err := e.Run(ctx, o, os.Stdout); err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	fmt.Println()
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `seesawctl — regenerate the SeeSAw paper's tables and figures

usage:
  seesawctl list                           # experiment ids and titles
  seesawctl experiments                    # experiments grouped into families
  seesawctl run <id> [-steps N] [-runs N] [-seed N] [-jobs N] [-telemetry FILE]
  seesawctl all [-steps N] [-runs N] [-seed N] [-jobs N] [-telemetry FILE]
  seesawctl trace [-policy P] [-analyses A] [-nodes N] [-dim D] [-j J] [-w W] [-faults PLAN] [-classes MAP] [-topology T] [-telemetry FILE]
  seesawctl job [-csv] [-telemetry FILE] <job.json>
  seesawctl serve [-addr HOST:PORT] [-id EXPERIMENT] [-steps N] [-runs N] [-seed N] [-jobs N]
  seesawctl selftest [-seed N] [-jobs N]   # verify the paper's headline invariants
  seesawctl policies                       # registered power policies with descriptions
  seesawctl search [-nodes N,..] [-budgets W,..] [-w W,..] [-dims D,..] [-faults P,..] [-classes M;..] [-topologies T,..] [-policies P,..] [-jobs N]

-topology (and the job file's "topology" key) selects the workflow
placement: space-shared (default), time-shared, in-transit or dag.
space-shared runs on the classic two-partition driver (internal/cosim);
any other value routes the run through the workflow-graph engine
(internal/workflow).

-classes (and the job file's "classes" key) assigns device classes to
node id ranges, e.g. "0-63:cpu,64-127:gpu". Preset classes: cpu, gpu,
lowpower (see internal/machine). Unlisted nodes keep the default model;
an empty map is the classic homogeneous cluster. In search, the classes
axis is semicolon-separated because maps contain commas.

Experiment cells run concurrently (bounded by -jobs); reports are
byte-identical at any -jobs value. Ctrl-C cancels cleanly: partial
output is flushed and the exit status is non-zero.

serve exposes Prometheus metrics at /metrics and a JSON snapshot at
/debug/telemetry while looping the selected experiment.

search fans the cross product of its comma-separated axes across the
campaign worker pool — one rollout per (scenario, policy) — and names
the fastest policy per scenario (see internal/rollout).`)
}
