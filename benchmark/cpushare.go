package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuModules are the buckets of the CPU attribution: the program's
// modules, the Go runtime, and everything else (the standard library,
// the smaller modules and the benchmark itself).
var cpuModules = []string{
	"rapl", "machine", "cluster", "core", "policy", "cosim", "rollout", "campaign",
	"mpi", "workflow", "insitu", "polimer", "lammps", "analysis", "telemetry",
	"rng", "trace", "bench", "runtime", "other",
}

// cpuShare merges the CPU profiles with `go tool pprof -top` and returns
// each module's share of the flat (self) CPU time. With no profiles, or
// no samples in them, every share is 0.
func cpuShare(ctx context.Context, profiles []string) (map[string]float64, error) {
	if len(profiles) == 0 {
		return bucketFlat(nil), nil
	}
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-unit=ms"}, profiles...)
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	flat, err := parseTop(out)
	if err != nil {
		return nil, err
	}
	return bucketFlat(flat), nil
}

// parseTop reads the function rows of `pprof -top -unit=ms` output and
// returns each function's flat milliseconds.
func parseTop(out []byte) (map[string]float64, error) {
	flat := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	rows := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !rows {
			rows = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		flat[name] += v
	}
	return flat, sc.Err()
}

// moduleOf maps a profiled function to its CPU bucket.
func moduleOf(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	pkg := fn
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		if j := strings.Index(fn[i:], "."); j >= 0 {
			pkg = fn[:i+j]
		}
	} else if j := strings.Index(fn, "."); j >= 0 {
		pkg = fn[:j]
	}
	if rest, ok := strings.CutPrefix(pkg, "seesaw/internal/"); ok {
		mod, _, _ := strings.Cut(rest, "/")
		for _, m := range cpuModules {
			if m == mod {
				return m
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// bucketFlat sums flat time per module and normalizes it to shares.
func bucketFlat(flat map[string]float64) map[string]float64 {
	share := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		share[m] = 0
	}
	var total float64
	for fn, v := range flat {
		share[moduleOf(fn)] += v
		total += v
	}
	if total > 0 {
		for m := range share {
			share[m] /= total
		}
	}
	return share
}
