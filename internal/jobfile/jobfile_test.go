package jobfile

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seesaw/internal/cosim"
	"seesaw/internal/policy"
	"seesaw/internal/units"
	"seesaw/internal/workflow"
)

const validJSON = `{
  "nodes": 8,
  "dim": 16,
  "j": 1,
  "steps": 20,
  "analyses": [{"name": "msd"}, {"name": "rdf", "interval": 4}],
  "policy": "seesaw",
  "window": 2,
  "cap_per_node_w": 110,
  "seed": 7
}`

func TestLoadValid(t *testing.T) {
	j, err := Load(strings.NewReader(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	if j.Nodes != 8 || j.Policy != "seesaw" || j.Window != 2 {
		t.Errorf("parsed job wrong: %+v", j)
	}
	if len(j.Analyses) != 2 || j.Analyses[1].Interval != 4 {
		t.Errorf("analyses wrong: %+v", j.Analyses)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	_, err := Load(strings.NewReader(`{"nodes": 8, "dim": 16, "steps": 10,
		"analyses": [{"name":"msd"}], "bogus_field": 1}`))
	if err == nil {
		t.Fatal("unknown field should be rejected")
	}
	// The error must name the bad key and list the valid schema.
	for _, want := range []string{"bogus_field", "valid keys", "nodes", "topology", "faults"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-field error missing %q: %v", want, err)
		}
	}
}

func TestLoadRejectsTrailingData(t *testing.T) {
	if _, err := Load(strings.NewReader(validJSON + ` {"nodes": 4}`)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing data should be rejected, got %v", err)
	}
}

func TestTopologyField(t *testing.T) {
	base := `{"nodes": 8, "dim": 16, "steps": 10, "analyses": [{"name":"msd"}], "topology": %q}`
	for _, tn := range []string{"space-shared", "time-shared", "in-transit", "dag"} {
		j, err := Load(strings.NewReader(fmt.Sprintf(base, tn)))
		if err != nil {
			t.Errorf("topology %q rejected: %v", tn, err)
			continue
		}
		if j.Topology != tn {
			t.Errorf("topology = %q, want %q", j.Topology, tn)
		}
	}
	_, err := Load(strings.NewReader(fmt.Sprintf(base, "ring")))
	if err == nil {
		t.Fatal("bogus topology accepted")
	}
	for _, want := range []string{`"ring"`, "space-shared", "time-shared", "in-transit", "dag"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("topology error missing %q: %v", want, err)
		}
	}
}

func TestBuildWorkflowAndRun(t *testing.T) {
	j, err := Load(strings.NewReader(`{"nodes": 8, "dim": 8, "steps": 6,
		"analyses": [{"name":"msd1d"}], "policy": "seesaw", "topology": "in-transit", "seed": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := j.BuildWorkflow()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Graph.Name != "space-shared" && cfg.Graph.Name != "in-transit" {
		t.Errorf("unexpected graph %q", cfg.Graph.Name)
	}
	res, err := workflow.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MainLoopTime <= 0 || res.TransferSeconds <= 0 {
		t.Errorf("in-transit run implausible: time %v, transfer %v", res.MainLoopTime, res.TransferSeconds)
	}
}

// TestBuildWorkflowCapModes pins cap_mode on a job with a topology:
// "long+short" adds short-term caps to the engine's long-term ones, and
// "none" is an error naming the topology, since the engine always caps.
func TestBuildWorkflowCapModes(t *testing.T) {
	build := func(mode string) (workflow.Config, error) {
		j, err := Load(strings.NewReader(`{"nodes": 8, "dim": 8, "steps": 6,
			"analyses": [{"name":"msd1d"}], "topology": "in-transit", "cap_mode": "` + mode + `"}`))
		if err != nil {
			t.Fatal(err)
		}
		return j.BuildWorkflow()
	}
	for mode, want := range map[string]bool{"": false, "long": false, "long+short": true} {
		cfg, err := build(mode)
		if err != nil {
			t.Fatalf("cap_mode %q: %v", mode, err)
		}
		if cfg.ShortTermCap != want {
			t.Errorf("cap_mode %q: ShortTermCap = %v, want %v", mode, cfg.ShortTermCap, want)
		}
	}
	if _, err := build("none"); err == nil || !strings.Contains(err.Error(), "in-transit") {
		t.Errorf(`cap_mode "none" on in-transit: err = %v, want an error naming the topology`, err)
	}
}

// TestBuildWorkflowScalesInitialCaps pins that a job file's initial
// caps, given per physical node, scale with the topology's power
// domains as the cap range does: on a time-shared job each rank owns a
// half-node domain, so 120/100 W become 60/50 W, and a static run keeps
// its ranks there.
func TestBuildWorkflowScalesInitialCaps(t *testing.T) {
	for _, tc := range []struct {
		topology string
		sim, ana units.Watts
	}{
		{"space-shared", 120, 100},
		{"in-transit", 120, 100},
		{"time-shared", 60, 50},
	} {
		t.Run(tc.topology, func(t *testing.T) {
			j, err := Load(strings.NewReader(`{"nodes": 8, "dim": 8, "steps": 4, "analyses": [{"name":"msd1d"}],
				"topology": "` + tc.topology + `", "initial_sim_cap_w": 120, "initial_ana_cap_w": 100}`))
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := j.BuildWorkflow()
			if err != nil {
				t.Fatal(err)
			}
			if got := cfg.InitialCaps["sim"]; got != tc.sim {
				t.Errorf("initial sim cap = %v, want %v", got, tc.sim)
			}
			if got := cfg.InitialCaps["ana"]; got != tc.ana {
				t.Errorf("initial ana cap = %v, want %v", got, tc.ana)
			}
			if tc.topology != "time-shared" {
				return
			}
			res, err := workflow.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			last := res.SyncLog.Records[res.SyncLog.Len()-1]
			if last.SimCap != tc.sim || last.AnaCap != tc.ana {
				t.Errorf("static run ended at caps %v/%v, want %v/%v", last.SimCap, last.AnaCap, tc.sim, tc.ana)
			}
		})
	}
}

func TestBuildWorkflowOddNodes(t *testing.T) {
	j := &Job{Nodes: 7, Dim: 16, Steps: 10, Analyses: []Analysis{{Name: "msd"}}, Topology: "time-shared"}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.BuildWorkflow(); err == nil {
		t.Error("odd node count should fail the topology builder")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []string{
		`{"dim": 16, "steps": 10, "analyses": [{"name":"msd"}]}`,                                             // no nodes
		`{"nodes": 8, "steps": 10, "analyses": [{"name":"msd"}]}`,                                            // no dim
		`{"nodes": 8, "dim": 16, "analyses": [{"name":"msd"}]}`,                                              // no steps
		`{"nodes": 8, "dim": 16, "steps": 10, "analyses": []}`,                                               // no analyses
		`{"nodes": 8, "sim_nodes": 2, "ana_nodes": 2, "dim": 16, "steps": 10, "analyses": [{"name":"msd"}]}`, // inconsistent
		`{"nodes": 8, "dim": 16, "steps": 10, "analyses": [{"name":"msd"}], "cap_mode": "weird"}`,            // bad mode
		`{"nodes": 8, "dim": 16, "steps": 10, "analyses": [{"name":"msd"}], "policy": "weird"}`,              // bad policy
		`{"nodes": 8, "dim": 16, "steps": 10, "analyses": [{"name":"msd"}], "window": -3}`,                   // negative window
		`{"nodes": 8, "dim": 16, "steps": 10, "analyses": [{"name":"msd"}], "j": -1}`,                        // negative j
		`{"nodes": 8, "dim": 16, "steps": 10, "analyses": [{"name":"msd", "interval": -2}]}`,                 // negative interval
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

// TestUnknownPolicyErrorListsRegistry pins the policy error text to the
// registry: the valid-name list in the message is policy.Names(), not a
// hand-maintained copy, so a newly registered policy is automatically
// accepted and advertised.
func TestUnknownPolicyErrorListsRegistry(t *testing.T) {
	_, err := Load(strings.NewReader(
		`{"nodes": 8, "dim": 16, "steps": 10, "analyses": [{"name":"msd"}], "policy": "weird"}`))
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	want := fmt.Sprintf("jobfile: unknown policy %q (valid: %s)", "weird", strings.Join(policy.Names(), ", "))
	if err.Error() != want {
		t.Fatalf("error = %q, want %q", err.Error(), want)
	}
}

func TestBuildAndRun(t *testing.T) {
	j, err := Load(strings.NewReader(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := j.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Spec.SimNodes != 4 || cfg.Spec.AnaNodes != 4 {
		t.Errorf("node split = %d/%d", cfg.Spec.SimNodes, cfg.Spec.AnaNodes)
	}
	if cfg.Constraints.Budget != 880 {
		t.Errorf("budget = %v", cfg.Constraints.Budget)
	}
	if cfg.Policy.Name() != "seesaw" {
		t.Errorf("policy = %s", cfg.Policy.Name())
	}
	res, err := cosim.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 {
		t.Error("job did not run")
	}
}

func TestBuildDefaults(t *testing.T) {
	j, err := Load(strings.NewReader(`{"nodes": 8, "dim": 16, "steps": 10,
		"analyses": [{"name": "vacf"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := j.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy.Name() != "static" {
		t.Errorf("default policy = %s, want static", cfg.Policy.Name())
	}
	if cfg.Constraints.MinCap != 98 || cfg.Constraints.MaxCap != 215 {
		t.Errorf("default cap range = %v/%v", cfg.Constraints.MinCap, cfg.Constraints.MaxCap)
	}
	if cfg.CapMode != cosim.CapLong {
		t.Error("default cap mode should be long")
	}
	if cfg.Seed != 1 {
		t.Errorf("default seed = %d", cfg.Seed)
	}
}

func TestBuildCapModes(t *testing.T) {
	for mode, want := range map[string]cosim.CapMode{
		"none":       cosim.CapNone,
		"long":       cosim.CapLong,
		"long+short": cosim.CapLongShort,
	} {
		j := &Job{Nodes: 8, Dim: 16, Steps: 10,
			Analyses: []Analysis{{Name: "msd"}}, CapMode: mode}
		cfg, err := j.Build()
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if cfg.CapMode != want {
			t.Errorf("cap_mode %q -> %v, want %v", mode, cfg.CapMode, want)
		}
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.json")
	if err := os.WriteFile(path, []byte(validJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}

func TestBuildRejectsUnknownAnalysis(t *testing.T) {
	j := &Job{Nodes: 8, Dim: 16, Steps: 10, Analyses: []Analysis{{Name: "nope"}}}
	if _, err := j.Build(); err == nil {
		t.Error("unknown analysis should fail at Build")
	}
}
