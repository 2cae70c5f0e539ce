package insitu

import (
	"bytes"
	"context"
	"crypto/sha256"
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
// produced, captured before analysis-side memoization was introduced:
// replaying per-kind integrations may not move a single bit of any
// observable.
func TestAnalysisMemoGolden(t *testing.T) {
	path := filepath.Join("testdata", "insitu_golden.txt")
	res, err := Run(context.Background(), goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	memoized := renderGolden(res)
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
	if bytes.Equal(memoized, want) {
		return
	}
	for i := 0; i < min(len(memoized), len(want)); i++ {
		if memoized[i] != want[i] {
			lo := max(i-40, 0)
			t.Fatalf("memoized run diverges from golden at byte %d: got ...%q, want ...%q",
				i, memoized[lo:min(i+40, len(memoized))], want[lo:min(i+40, len(want))])
		}
	}
	t.Fatalf("memoized run length differs from golden: got %d bytes, want %d", len(memoized), len(want))
}

// TestAnalysisMemoMatchesUnmemoized pins three partition shapes,
// including AnaRanks > SimRanks where some analysis ranks consume no
// frames at all, to the digests of their rendered results. The digests
// were recorded when each analysis rank could still run its own kernels
// in place, and that per-rank path and the memoized replay both gave
// exactly these bytes.
func TestAnalysisMemoMatchesUnmemoized(t *testing.T) {
	shapes := []struct {
		sim, ana int
		want     string
	}{
		{4, 2, "60e71438bef105108a17d0d67cb29d7ca2ac107061606bab7208297e729d219f"},
		{3, 4, "2d06b7999b29110aadc3e92501453eeb30ee2bda77b4b74c148fa0886a7f770b"},
		{5, 3, "6b532b2c7ace89605f37a40f3c413cbf00fc511fa47e5923e215fa06c0476492"},
	}
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("sim=%d_ana=%d", sh.sim, sh.ana), func(t *testing.T) {
			cfg := goldenConfig()
			cfg.SimRanks = sh.sim
			cfg.AnaRanks = sh.ana
			cfg.Faults = nil
			n := sh.sim + sh.ana
			cfg.Constraints = core.Constraints{Budget: units.Watts(110 * n), MinCap: 98, MaxCap: 215}
			cfg.Policy = core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cfg.Constraints, Window: 2})
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(renderGolden(res))); got != sh.want {
				t.Errorf("digest = %s, want %s", got, sh.want)
			}
		})
	}
}

// TestPlacementDigests pins the rendered results of one job under each
// placement: space-shared, time-shared (with unequal initial caps, so
// the halved caps are visible) and in-transit. The digests come from
// runs in which insitu scaled its time-shared phases with its own
// arithmetic, so the workflow engine's scaling must reproduce them.
func TestPlacementDigests(t *testing.T) {
	cases := []struct {
		topology               string
		initialSim, initialAna units.Watts
		want                   string
	}{
		{"space-shared", 0, 0, "48f2ace445d4bbe4d2943c86019c9b5308661bd158ade2c49b1929545bb4c245"},
		{"time-shared", 120, 100, "5df0517ac3a4cb3f9b041113e3a361af0a60b1cd80b014f4fb4ea67ab777b4e6"},
		{"in-transit", 0, 0, "67bb23bc0712135b2ef7f47285390a1d2199c217e79183a6b7b0d8bc9d5902c3"},
	}
	for _, tc := range cases {
		t.Run(tc.topology, func(t *testing.T) {
			cfg := goldenConfig()
			cfg.SimRanks, cfg.AnaRanks = 4, 4
			cfg.Constraints = core.Constraints{Budget: 110 * 8, MinCap: 98, MaxCap: 215}
			cfg.Policy = core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cfg.Constraints, Window: 2})
			cfg.Topology = tc.topology
			cfg.InitialSimCap, cfg.InitialAnaCap = tc.initialSim, tc.initialAna
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(renderGolden(res))); got != tc.want {
				t.Errorf("digest = %s, want %s", got, tc.want)
			}
		})
	}
}
