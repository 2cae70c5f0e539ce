// seesawctl search: batched policy search over a rollout grid. Every
// (nodes, budget, w, dim, faults, classes, topology) scenario runs once
// per policy through the rollout environment on the campaign worker
// pool, and the report names the winning policy per scenario. The
// scalar knobs (-steps, -j, -analyses, -seed) join the scenario key
// only when they deviate from their defaults, so default grids keep
// their established keys while two grids differing in those knobs can
// never collide.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"seesaw/internal/rollout"
	"seesaw/internal/trace"
	"seesaw/internal/units"
)

// splitList parses a comma-separated flag value into its fields; empty
// fields are kept only when the whole value is non-empty and explicitly
// lists them (a lone "" means "axis default").
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// intList parses a comma-separated list of integers.
func intList(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// wattList parses a comma-separated list of Watt values.
func wattList(s string) ([]units.Watts, error) {
	var out []units.Watts
	for _, f := range splitList(s) {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad wattage %q: %w", f, err)
		}
		out = append(out, units.Watts(v))
	}
	return out, nil
}

// scenarioOf strips the trailing "/<policy>" from a point key, leaving
// the scenario identity shared by all policies of one grid cell.
func scenarioOf(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[:i]
	}
	return key
}

// runSearch implements the search subcommand.
func runSearch(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	nodes := fs.String("nodes", "", "comma-separated total node counts (default 8)")
	budgets := fs.String("budgets", "", "comma-separated per-node budgets in W (default 110)")
	windows := fs.String("w", "", "comma-separated reallocation windows (default 1)")
	dims := fs.String("dims", "", "comma-separated problem sizes (default 16)")
	faults := fs.String("faults", "", "comma-separated fault plans; 'none' for the fault-free scenario")
	classes := fs.String("classes", "", "semicolon-separated device-class maps, e.g. '0-3:cpu,4-7:gpu'; 'uniform' for the homogeneous scenario")
	topologies := fs.String("topologies", "", "comma-separated placements (default space-shared)")
	policies := fs.String("policies", "", "comma-separated registry policies (default: all registered)")
	steps := fs.Int("steps", 0, "Verlet steps per episode (default 400)")
	j := fs.Int("j", 0, "synchronize every j-th step (default 1)")
	analyses := fs.String("analyses", "", "comma-separated analyses (default msd)")
	seed := fs.Uint64("seed", 1, "base job seed")
	jobs := fs.Int("jobs", 0, "max rollouts in flight (0 = GOMAXPROCS); results are identical at any value")
	cacheStats := fs.Bool("cache-stats", false, "print a trace-cache summary line (hits/misses/evictions/bytes) after the search")
	telPath := fs.String("telemetry", "", "stream telemetry events to this file as JSON Lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	g := rollout.Grid{
		Topologies: splitList(*topologies),
		Policies:   splitList(*policies),
		Analyses:   splitList(*analyses),
		Steps:      *steps,
		J:          *j,
		Seed:       *seed,
	}
	for _, fp := range splitList(*faults) {
		if fp == "none" {
			fp = ""
		}
		g.Faults = append(g.Faults, fp)
	}
	// Class maps contain commas ("0-3:cpu,4-7:gpu"), so the classes axis
	// is semicolon-separated.
	for _, cs := range strings.Split(*classes, ";") {
		cs = strings.TrimSpace(cs)
		if cs == "" {
			continue
		}
		if cs == "uniform" {
			cs = ""
		}
		g.Classes = append(g.Classes, cs)
	}
	var err error
	if g.Nodes, err = intList(*nodes); err != nil {
		return fail(ctx, err)
	}
	if g.Windows, err = intList(*windows); err != nil {
		return fail(ctx, err)
	}
	if g.Dims, err = intList(*dims); err != nil {
		return fail(ctx, err)
	}
	if g.Budgets, err = wattList(*budgets); err != nil {
		return fail(ctx, err)
	}

	points, err := g.Expand()
	if err != nil {
		return fail(ctx, err)
	}
	hub, closeHub := mustOpenHub(*telPath)
	defer closeHub()
	for i := range points {
		// Every rollout reports into the hub; instrumented episodes run
		// the same pooled path as plain ones, so the report is unchanged.
		points[i].Spec.Telemetry = hub
	}
	cache := rollout.NewStateCache()
	cache.SetTelemetry(hub)
	outs, err := rollout.Batch(ctx, points, rollout.Options{Jobs: *jobs, Cache: cache, Telemetry: hub})
	if err != nil {
		return fail(ctx, err)
	}

	tbl := trace.NewTable(fmt.Sprintf("policy search (%d rollouts)", len(outs)),
		"scenario", "policy", "time (s)", "energy (kJ)")
	type cell struct {
		policy string
		time   float64
	}
	best := map[string]cell{}
	var order []string
	for _, o := range outs {
		sc := scenarioOf(o.Point.Key)
		if _, seen := best[sc]; !seen {
			order = append(order, sc)
		}
		if o.Result == nil {
			tbl.AddRow(sc, o.Point.Policy, "failed: "+o.Err.Error(), "")
			continue
		}
		t := float64(o.Result.TotalTime)
		tbl.AddRow(sc, o.Point.Policy,
			fmt.Sprintf("%.2f", t), fmt.Sprintf("%.1f", float64(o.Result.TotalEnergy)/1000))
		if b, seen := best[sc]; !seen || t < b.time {
			best[sc] = cell{policy: o.Point.Policy, time: t}
		}
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return fail(ctx, err)
	}

	fmt.Println()
	sort.Strings(order)
	for _, sc := range order {
		if b, ok := best[sc]; ok {
			fmt.Printf("best %-60s %s (%.2f s)\n", sc, b.policy, b.time)
		}
	}
	if *cacheStats {
		st := cache.Stats()
		fmt.Printf("trace cache: %d hits, %d misses, %d evictions, %d entries, %d bytes\n",
			st.Hits, st.Misses, st.Evictions, st.Entries, st.Bytes)
	}
	return 0
}
