package insitu

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"seesaw/internal/core"
	"seesaw/internal/fault"
	"seesaw/internal/machine"
	"seesaw/internal/units"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/insitu_golden.txt from the current run")

// goldenConfig is chosen to exercise every piece of state the analysis
// memoization must reproduce exactly: uneven partitions (so two distinct
// source counts exist among the analysis ranks), all five analyses with
// a mixed interval, node noise, short-term caps and a slow-node
// excursion.
func goldenConfig() Config {
	n := 8
	cons := core.Constraints{Budget: units.Watts(110 * n), MinCap: 98, MaxCap: 215}
	plan, err := fault.Parse("slow:6@3x1.7+8")
	if err != nil {
		panic(err)
	}
	return Config{
		SimRanks:          5,
		AnaRanks:          3,
		Steps:             24,
		SyncEvery:         2,
		Analyses:          []string{"rdf", "vacf", "msd", "msd1d", "msd2d"},
		AnalysisIntervals: map[string]int{"msd": 4},
		Policy:            core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cons, Window: 2}),
		Constraints:       cons,
		ShortTermCap:      true,
		Seed:              17,
		Faults:            plan,
		Noise:             machine.NoiseModel{SkewSigma: 0.02, PowerEffSigma: 0.03, JitterSigma: 0.01},
	}
}

// hexFloat renders a float64 exactly (hex mantissa), so the golden
// comparison catches drifts far below any decimal rounding.
func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// renderGolden serializes every observable of a Result at full float64
// precision.
func renderGolden(res *Result) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "main_loop_time %s\n", hexFloat(float64(res.MainLoopTime)))
	fmt.Fprintf(&b, "syncs %d\n", res.Syncs)
	fmt.Fprintf(&b, "total_energy %s\n", hexFloat(float64(res.TotalEnergy)))
	fmt.Fprintf(&b, "overhead_total %s\n", hexFloat(float64(res.OverheadTotal)))
	fmt.Fprintf(&b, "final_sim_energy %s\n", hexFloat(res.FinalSimEnergy))
	for _, r := range res.SyncLog.Records {
		fmt.Fprintf(&b, "sync %d %s %s %s %s %s %s %s\n", r.Step,
			hexFloat(float64(r.SimTime)), hexFloat(float64(r.AnaTime)),
			hexFloat(float64(r.SimPower)), hexFloat(float64(r.AnaPower)),
			hexFloat(float64(r.SimCap)), hexFloat(float64(r.AnaCap)),
			hexFloat(float64(r.Overhead)))
	}
	names := make([]string, 0, len(res.AnalysisResults))
	for name := range res.AnalysisResults {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "analysis %s", name)
		for _, v := range res.AnalysisResults[name] {
			fmt.Fprintf(&b, " %s", hexFloat(v))
		}
		fmt.Fprintln(&b)
	}
	return b.Bytes()
}

// TestAnalysisMemoGolden pins the full job result — virtual times,
// per-synchronization records and every analysis output
// float — to the bytes the unmemoized (per-rank Consume) runtime
// produced, captured before analysis-side memoization was introduced.
// Both the memoized default and the -no-ana-memo escape hatch must
// reproduce the recording exactly: replaying per-kind integrations may
// not move a single bit of any observable.
func TestAnalysisMemoGolden(t *testing.T) {
	path := filepath.Join("testdata", "insitu_golden.txt")
	run := func(noMemo bool) []byte {
		cfg := goldenConfig()
		cfg.NoAnaMemo = noMemo
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return renderGolden(res)
	}
	memoized := run(false)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, memoized, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %d bytes", len(memoized))
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to create): %v", err)
	}
	compare := func(mode string, got []byte) {
		if bytes.Equal(got, want) {
			return
		}
		n := len(got)
		if len(want) < n {
			n = len(want)
		}
		for i := 0; i < n; i++ {
			if got[i] != want[i] {
				lo := i - 40
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("%s diverges from golden at byte %d: got ...%q, want ...%q",
					mode, i, got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
			}
		}
		t.Fatalf("%s length differs from golden: got %d bytes, want %d", mode, len(got), len(want))
	}
	compare("memoized run", memoized)
	compare("-no-ana-memo run", run(true))
}

// TestAnalysisMemoMatchesUnmemoized cross-checks the two paths directly
// (independent of the committed golden) across partition shapes,
// including AnaRanks > SimRanks where some analysis ranks consume no
// frames at all.
func TestAnalysisMemoMatchesUnmemoized(t *testing.T) {
	shapes := []struct{ sim, ana int }{{4, 2}, {3, 4}, {5, 3}}
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("sim=%d_ana=%d", sh.sim, sh.ana), func(t *testing.T) {
			run := func(noMemo bool) []byte {
				// Each run gets a fresh config (and in particular a fresh
				// policy: SeeSAw keeps window history across allocations).
				cfg := goldenConfig()
				cfg.SimRanks = sh.sim
				cfg.AnaRanks = sh.ana
				cfg.Faults = nil
				n := sh.sim + sh.ana
				cfg.Constraints = core.Constraints{Budget: units.Watts(110 * n), MinCap: 98, MaxCap: 215}
				cfg.Policy = core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cfg.Constraints, Window: 2})
				cfg.NoAnaMemo = noMemo
				res, err := Run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				return renderGolden(res)
			}
			memo, plain := run(false), run(true)
			if !bytes.Equal(memo, plain) {
				lm := bytes.Split(memo, []byte("\n"))
				lp := bytes.Split(plain, []byte("\n"))
				for i := 0; i < len(lm) && i < len(lp); i++ {
					if !bytes.Equal(lm[i], lp[i]) {
						t.Fatalf("memoized and unmemoized runs differ at line %d:\nmemo:  %.200s\nplain: %.200s", i, lm[i], lp[i])
					}
				}
				t.Fatalf("memoized and unmemoized runs differ in length: %d vs %d lines", len(lm), len(lp))
			}
		})
	}
}
