// Package jobfile loads and validates JSON job descriptions for the
// command-line tools, so experiment cells can be versioned as files
// instead of flag soup:
//
//	{
//	  "nodes": 128,
//	  "dim": 16,
//	  "j": 1,
//	  "steps": 400,
//	  "analyses": [{"name": "msd"}, {"name": "rdf", "interval": 4}],
//	  "policy": "seesaw",
//	  "window": 1,
//	  "cap_per_node_w": 110,
//	  "initial_sim_cap_w": 120,
//	  "initial_ana_cap_w": 100,
//	  "cap_mode": "long",
//	  "seed": 1,
//	  "faults": "kill:3@40,slow:0@10x2+20"
//	}
package jobfile

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"

	"seesaw/internal/core"
	"seesaw/internal/cosim"
	"seesaw/internal/fault"
	"seesaw/internal/machine"
	"seesaw/internal/policy"
	"seesaw/internal/units"
	"seesaw/internal/workflow"
	"seesaw/internal/workload"
)

// Analysis is one analysis entry.
type Analysis struct {
	Name     string `json:"name"`
	Interval int    `json:"interval,omitempty"`
}

// Job is the JSON schema of one co-simulated job.
type Job struct {
	Nodes    int        `json:"nodes"`
	SimNodes int        `json:"sim_nodes,omitempty"`
	AnaNodes int        `json:"ana_nodes,omitempty"`
	Dim      int        `json:"dim"`
	J        int        `json:"j,omitempty"`
	Steps    int        `json:"steps"`
	Analyses []Analysis `json:"analyses"`

	Policy string `json:"policy,omitempty"`
	Window int    `json:"window,omitempty"`

	// The caps are watts per physical node. A topology whose ranks own
	// partial-node domains (time-shared) scales the initial caps and
	// the cap range to them; the budget stays the machine's.
	CapPerNodeW    float64 `json:"cap_per_node_w,omitempty"`
	InitialSimCapW float64 `json:"initial_sim_cap_w,omitempty"`
	InitialAnaCapW float64 `json:"initial_ana_cap_w,omitempty"`
	MinCapW        float64 `json:"min_cap_w,omitempty"`
	MaxCapW        float64 `json:"max_cap_w,omitempty"`
	CapMode        string  `json:"cap_mode,omitempty"` // "none", "long", "long+short"

	Seed    uint64 `json:"seed,omitempty"`
	RunSeed uint64 `json:"run_seed,omitempty"`
	NoNoise bool   `json:"no_noise,omitempty"`

	// Faults is an optional fault plan in internal/fault's grammar,
	// e.g. "kill:3@40,slow:0@10x2+20".
	Faults string `json:"faults,omitempty"`

	// Classes assigns device classes to node ids in the
	// machine.ClassMap grammar, e.g. "0-31:cpu,32-63:gpu"; empty keeps
	// the cluster homogeneous. Names resolve against the built-in
	// presets (machine.PresetNames).
	Classes string `json:"classes,omitempty"`

	// Topology selects the workflow placement: "" or "space-shared"
	// runs the classic two-partition driver; "time-shared",
	// "in-transit" and "dag" run the job through the workflow-graph
	// engine (see internal/workflow), which always installs caps and
	// so rejects cap_mode "none".
	Topology string `json:"topology,omitempty"`
}

// Load reads a job description from r. Unknown top-level keys are
// rejected (a typoed key must not silently fall back to a default), as
// is trailing data after the job object.
func Load(r io.Reader) (*Job, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var j Job
	if err := dec.Decode(&j); err != nil {
		if strings.Contains(err.Error(), "unknown field") {
			return nil, fmt.Errorf("jobfile: %w (valid keys: %s)", err, strings.Join(validKeys(), ", "))
		}
		return nil, fmt.Errorf("jobfile: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("jobfile: trailing data after job object")
	}
	if err := j.Validate(); err != nil {
		return nil, err
	}
	return &j, nil
}

// validKeys lists the job schema's top-level JSON keys, derived from
// the struct tags so the error hint can never drift from the schema.
func validKeys() []string {
	var keys []string
	t := reflect.TypeOf(Job{})
	for i := 0; i < t.NumField(); i++ {
		tag := t.Field(i).Tag.Get("json")
		if name, _, _ := strings.Cut(tag, ","); name != "" && name != "-" {
			keys = append(keys, name)
		}
	}
	return keys
}

// LoadFile reads a job description from a file path.
func LoadFile(path string) (*Job, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("jobfile: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// Validate checks the description and fills no defaults (Build applies
// them).
func (j *Job) Validate() error {
	if j.Nodes <= 0 && (j.SimNodes <= 0 || j.AnaNodes <= 0) {
		return fmt.Errorf("jobfile: need nodes, or sim_nodes and ana_nodes")
	}
	if j.Nodes > 0 && (j.SimNodes > 0 || j.AnaNodes > 0) && j.SimNodes+j.AnaNodes != j.Nodes {
		return fmt.Errorf("jobfile: nodes=%d inconsistent with sim_nodes+ana_nodes=%d",
			j.Nodes, j.SimNodes+j.AnaNodes)
	}
	if j.Dim <= 0 {
		return fmt.Errorf("jobfile: dim must be positive")
	}
	if j.Steps <= 0 {
		return fmt.Errorf("jobfile: steps must be positive")
	}
	if len(j.Analyses) == 0 {
		return fmt.Errorf("jobfile: at least one analysis required")
	}
	// Zero means the default for these three; a negative value would
	// silently run as that default too, so it is an error.
	if j.J < 0 {
		return fmt.Errorf("jobfile: j must not be negative, got %d", j.J)
	}
	if j.Window < 0 {
		return fmt.Errorf("jobfile: window must not be negative, got %d", j.Window)
	}
	for _, a := range j.Analyses {
		if a.Interval < 0 {
			return fmt.Errorf("jobfile: analysis %q: interval must not be negative, got %d", a.Name, a.Interval)
		}
	}
	switch j.CapMode {
	case "", "none", "long", "long+short":
	default:
		return fmt.Errorf("jobfile: unknown cap_mode %q", j.CapMode)
	}
	if j.Policy != "" && !policy.Valid(j.Policy) {
		return fmt.Errorf("jobfile: unknown policy %q (valid: %s)", j.Policy, strings.Join(policy.Names(), ", "))
	}
	if _, err := fault.Parse(j.Faults); err != nil {
		return fmt.Errorf("jobfile: %w", err)
	}
	if cm, err := machine.ParseClassMap(j.Classes); err != nil {
		return fmt.Errorf("jobfile: %w", err)
	} else if !cm.Empty() {
		resolve := func(name string) bool { _, ok := machine.PresetClass(name); return ok }
		n := j.Nodes
		if n == 0 {
			n = j.SimNodes + j.AnaNodes
		}
		if err := cm.Validate(n, resolve, machine.PresetNames()); err != nil {
			return fmt.Errorf("jobfile: %w", err)
		}
	}
	switch j.Topology {
	case "":
	default:
		valid := false
		for _, n := range workflow.TopologyNames() {
			if j.Topology == n {
				valid = true
			}
		}
		if !valid {
			return fmt.Errorf("jobfile: unknown topology %q (valid: %v)", j.Topology, workflow.TopologyNames())
		}
	}
	return nil
}

// settings are a job's fields with the paper's defaults filled in,
// resolved once for Build and BuildWorkflow: 110 W per node on a
// 98-215 W cap range, the static policy with w=1, the default noise
// model and seed 1.
type settings struct {
	capPer, minCap, maxCap units.Watts
	window                 int
	policy                 string
	noise                  machine.NoiseModel
	seed                   uint64
	faults                 *fault.Plan
	classes                *machine.ClassMap
	tasks                  []workload.AnalysisTask
}

// resolve fills in the job's defaults.
func (j *Job) resolve() (settings, error) {
	s := settings{
		capPer: 110, minCap: 98, maxCap: 215,
		window: 1, policy: "static",
		noise: machine.DefaultNoise(), seed: 1,
	}
	if j.CapPerNodeW != 0 {
		s.capPer = units.Watts(j.CapPerNodeW)
	}
	if j.MinCapW != 0 {
		s.minCap = units.Watts(j.MinCapW)
	}
	if j.MaxCapW != 0 {
		s.maxCap = units.Watts(j.MaxCapW)
	}
	if j.Window > 1 {
		s.window = j.Window
	}
	if j.Policy != "" {
		s.policy = j.Policy
	}
	if j.NoNoise {
		s.noise = machine.NoiseModel{}
	}
	if j.Seed != 0 {
		s.seed = j.Seed
	}
	var err error
	if s.faults, err = fault.Parse(j.Faults); err != nil {
		return settings{}, fmt.Errorf("jobfile: %w", err)
	}
	if s.classes, err = machine.ParseClassMap(j.Classes); err != nil {
		return settings{}, fmt.Errorf("jobfile: %w", err)
	}
	s.tasks = make([]workload.AnalysisTask, len(j.Analyses))
	for i, a := range j.Analyses {
		s.tasks[i] = workload.AnalysisTask{Name: a.Name, Interval: a.Interval}
	}
	return s, nil
}

// constraints spreads the per-node budget over nodes full nodes.
func (s settings) constraints(nodes int) core.Constraints {
	return core.Constraints{Budget: s.capPer * units.Watts(nodes), MinCap: s.minCap, MaxCap: s.maxCap}
}

// Build converts the description into a runnable cosim configuration,
// applying the paper's defaults (110 W per node, 98/215 W range, long
// caps, w=1).
func (j *Job) Build() (cosim.Config, error) {
	s, err := j.resolve()
	if err != nil {
		return cosim.Config{}, err
	}
	simNodes, anaNodes := j.SimNodes, j.AnaNodes
	if simNodes == 0 || anaNodes == 0 {
		simNodes = j.Nodes / 2
		anaNodes = j.Nodes - simNodes
	}
	spec := workload.Spec{
		SimNodes: simNodes, AnaNodes: anaNodes,
		Dim: j.Dim, J: j.J, Steps: j.Steps, Analyses: s.tasks,
	}
	if err := spec.Validate(); err != nil {
		return cosim.Config{}, fmt.Errorf("jobfile: %w", err)
	}
	cons := s.constraints(simNodes + anaNodes)
	pol, err := policy.New(s.policy, cons, s.window)
	if err != nil {
		return cosim.Config{}, err
	}
	mode := cosim.CapLong
	switch j.CapMode {
	case "none":
		mode = cosim.CapNone
	case "long+short":
		mode = cosim.CapLongShort
	}
	return cosim.Config{
		Spec:          spec,
		Policy:        pol,
		Constraints:   cons,
		InitialSimCap: units.Watts(j.InitialSimCapW),
		InitialAnaCap: units.Watts(j.InitialAnaCapW),
		CapMode:       mode,
		Seed:          s.seed,
		RunSeed:       j.RunSeed,
		Noise:         s.noise,
		Faults:        s.faults,
		Classes:       s.classes,
	}, nil
}

// BuildWorkflow converts the description into a workflow-engine run of
// the job's topology (Build runs the classic two-partition driver and
// ignores the topology field). The nodes count is the physical machine
// size; the builders place ranks on it per topology. The engine always
// installs long-term caps, so cap_mode "long+short" adds short-term
// caps and "none" is rejected.
func (j *Job) BuildWorkflow() (workflow.Config, error) {
	name := j.Topology
	if name == "" {
		name = "space-shared"
	}
	if j.CapMode == "none" {
		return workflow.Config{}, fmt.Errorf(`jobfile: topology %q always installs caps; cap_mode "none" runs only on the classic space-shared driver`, name)
	}
	s, err := j.resolve()
	if err != nil {
		return workflow.Config{}, err
	}
	nodes := j.Nodes
	if nodes == 0 {
		if j.SimNodes != j.AnaNodes {
			return workflow.Config{}, fmt.Errorf("jobfile: topology %q pairs partitions: sim_nodes (%d) must equal ana_nodes (%d)",
				name, j.SimNodes, j.AnaNodes)
		}
		nodes = j.SimNodes + j.AnaNodes
	}
	topo, err := workflow.Build(name, workflow.Params{
		Nodes: nodes, Dim: j.Dim, J: j.J, Steps: j.Steps, Analyses: s.tasks,
	})
	if err != nil {
		return workflow.Config{}, fmt.Errorf("jobfile: %w", err)
	}
	cons := topo.ScaleCaps(s.constraints(topo.PhysicalNodes))
	pol, err := policy.New(s.policy, cons, s.window)
	if err != nil {
		return workflow.Config{}, err
	}
	// Like the cap range, the initial caps scale to the ranks' domains.
	caps := map[string]units.Watts{}
	if j.InitialSimCapW != 0 {
		caps["sim"] = units.Watts(j.InitialSimCapW * topo.ConstraintScale)
	}
	if j.InitialAnaCapW != 0 {
		caps["ana"] = units.Watts(j.InitialAnaCapW * topo.ConstraintScale)
	}
	return workflow.Config{
		Graph:        topo.Graph,
		Steps:        j.Steps,
		SyncEvery:    j.J,
		Policy:       pol,
		Constraints:  cons,
		InitialCaps:  caps,
		ShortTermCap: j.CapMode == "long+short",
		Seed:         s.seed,
		RunSeed:      j.RunSeed,
		Noise:        s.noise,
		Faults:       s.faults,
		Classes:      s.classes,
	}, nil
}
