package cosim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"seesaw/internal/core"
	"seesaw/internal/machine"
)

// runDigest hashes what a one-shot run produced: the total time and
// energy bits and the sync log's CSV.
func runDigest(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	var b [8]byte
	for _, v := range []float64{float64(res.TotalTime), float64(res.TotalEnergy)} {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	var csv bytes.Buffer
	if err := res.SyncLog.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	h.Write(csv.Bytes())
	return hex.EncodeToString(h.Sum(nil))
}

// TestLiveNoiseGolden pins one-shot cosim.Run, whose nodes draw their
// noise live, one Norm per phase, on shapes the report's cells do not
// cover. The digests were recorded while Norm still called math.Log and
// math.Sincos, before the branch-free kernel replaced them.
func TestLiveNoiseGolden(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Config)
		want string
	}{
		// Syncs at 3, 6, ..., 30, then a trailing interval (step 31)
		// with no analysis phases.
		{"j3-steps31", func(c *Config) { c.Spec.J, c.Spec.Steps = 3, 31 },
			"62a470798f485dc9efa610663c9a73c8df69fbba1ebb3d569f69e1277383ef81"},
		// One draw per execution: odd per-interval counts, so a
		// Box-Muller spare carries from one interval into the next.
		{"power-sigma-0", func(c *Config) { c.Noise.PowerSigma = 0 },
			"0f5e4495787c80c974af43210f4bd9e4d81ad35d5fd5dad7308b6869f0d4397c"},
		{"kill-slow", func(c *Config) { c.Faults = mustPlan(t, "kill:1@10,slow:5@4x2.5+6,kill:6@20") },
			"a2b7c296ac0b51834ae6d9eee831cdb8f46a0811ff2f82b546e51411455e0303"},
		{"classes", func(c *Config) { c.Classes = machine.MustParseClassMap("1-2:gpu,5-6:lowpower") },
			"43ef213ad9038ecf44fbb563b70e6ba5ff4e9135a75109f80542590a411cdf89"},
		{"long-short", func(c *Config) { c.CapMode = CapLongShort },
			"1ce8c916bc015e2a8af266ec744b5c0c7a3ea377b8a90bea151288304191db60"},
		{"uncapped", func(c *Config) { c.CapMode = CapNone },
			"5c4e2aacdcc0f695b848bad83bb4a986ffa47b6d436dddccacd6f75705f0d355"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cons := smallCons()
			cfg := Config{Spec: smallSpec(), Constraints: cons, CapMode: CapLong,
				Policy: core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cons, Window: 1}),
				Seed:   11, RunSeed: 12, Noise: machine.DefaultNoise()}
			tc.edit(&cfg)
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := runDigest(t, res); got != tc.want {
				t.Errorf("digest = %s, want %s", got, tc.want)
			}

			// The shapes are what they claim: odd per-interval counts
			// exactly when each execution draws once (read from the
			// memo's counts, which a faulted job does not keep), and
			// the faults fire.
			st, err := NewJobState(cfg)
			if err != nil {
				t.Fatal(err)
			}
			odd := false
			for _, w := range st.noise {
				odd = odd || w.sim%2 == 1 || w.ana%2 == 1
			}
			if odd != (cfg.Noise.PowerSigma == 0) {
				t.Errorf("odd window counts = %v with PowerSigma %v", odd, cfg.Noise.PowerSigma)
			}
			if cfg.Faults != nil && (res.AliveSim != 3 || res.AliveAna != 3) {
				t.Errorf("alive = %d+%d after the kills, want 3+3", res.AliveSim, res.AliveAna)
			}
		})
	}
}

// TestWindowCountMismatchPanics mutates one interval's per-node draw
// count and checks that the episode panics: an over-count leaves draws
// of the recorded window unread, an under-count reads past it.
func TestWindowCountMismatchPanics(t *testing.T) {
	for _, delta := range []int{1, -1} {
		st, err := NewJobState(Config{Spec: smallSpec(), Seed: 3, Noise: machine.DefaultNoise()})
		if err != nil {
			t.Fatal(err)
		}
		// Every simulation node's window in interval 4 grows or
		// shrinks by one draw; node 0 runs first.
		st.noise[4].sim += delta
		ep, err := st.NewEpisode()
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if err, ok := r.(error); ok {
					msg = err.Error()
				}
				want := "unread"
				if delta < 0 {
					want = "index out of range"
				}
				if !strings.Contains(msg, want) {
					t.Errorf("count%+d: panic %v, want one naming %q", delta, r, want)
				}
			}()
			ep.Run(context.Background(), EpisodeParams{})
		}()
	}
}
