package bench

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"seesaw/internal/core"
	"seesaw/internal/telemetry"
	"seesaw/internal/units"
	"seesaw/internal/workload"
)

// fastOptions shrink every experiment to smoke-test size.
func fastOptions() Options {
	return Options{Steps: 25, Runs: 1, BaseSeed: 3}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig2", "table1", "fig3a", "fig3b", "fig4", "fig5",
		"fig6", "table2", "fig7", "fig8", "fig9a", "fig9b",
		"abl-ewma", "abl-window", "abl-hier", "abl-explore", "abl-oracle", "ext-sched", "ext-powershift", "abl-transient",
		"faults", "topologies", "search", "hetero"}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(IDs()), len(want))
	}
}

func TestFamiliesPartitionRegistry(t *testing.T) {
	seen := map[string]string{}
	for _, f := range Families() {
		if f.Description == "" {
			t.Errorf("family %s has no description", f.Name)
		}
		if len(f.IDs) == 0 {
			t.Errorf("family %s is empty", f.Name)
		}
		for _, id := range f.IDs {
			if prev, dup := seen[id]; dup {
				t.Errorf("experiment %s in both %s and %s", id, prev, f.Name)
			}
			seen[id] = f.Name
		}
	}
	for _, id := range IDs() {
		if _, ok := seen[id]; !ok {
			t.Errorf("experiment %s missing from all families", id)
		}
	}
	if len(seen) != len(IDs()) {
		t.Errorf("families list %d experiments, registry has %d", len(seen), len(IDs()))
	}
}

func TestGet(t *testing.T) {
	if _, ok := Get("fig1"); !ok {
		t.Error("fig1 not found")
	}
	if _, ok := Get("nope"); ok {
		t.Error("bogus id found")
	}
	if err := UnknownExperimentError("nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Error("unknown experiment error unhelpful")
	}
}

func TestAllExperimentsRun(t *testing.T) {
	// Every registered experiment must run cleanly at smoke size and
	// produce non-trivial output.
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(context.Background(), fastOptions(), &buf); err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if buf.Len() < 50 {
				t.Errorf("%s produced only %d bytes of output", e.ID, buf.Len())
			}
		})
	}
}

func TestImprovementPct(t *testing.T) {
	if got := improvementPct(100, 90); got != 10 {
		t.Errorf("improvement = %v, want 10", got)
	}
	if got := improvementPct(100, 110); got != -10 {
		t.Errorf("improvement = %v, want -10", got)
	}
	if improvementPct(0, 5) != 0 {
		t.Error("zero base should give 0")
	}
}

func TestSpecHelpers(t *testing.T) {
	s := spec128(16, 1, 100, nil)
	if s.SimNodes != 64 || s.AnaNodes != 64 {
		t.Errorf("spec128 nodes = %d/%d", s.SimNodes, s.AnaNodes)
	}
	s2 := specAt(1024, 48, 2, 200, nil)
	if s2.SimNodes != 512 || s2.AnaNodes != 512 || s2.Dim != 48 || s2.J != 2 {
		t.Errorf("specAt wrong: %+v", s2)
	}
	// Odd node count still sums correctly.
	s3 := specAt(7, 16, 1, 10, nil)
	if s3.SimNodes+s3.AnaNodes != 7 {
		t.Error("specAt lost a node")
	}
}

func TestMedianImprovementPairsJobs(t *testing.T) {
	// The improvement of a policy against itself must be exactly 0:
	// paired seeds mean the static baseline shares the job's placement.
	e := newEnum("pairs")
	g := e.paired("static", cell{spec: specAt(8, 16, 1, 30, testTasks()), policy: "static"}, 2, 7)
	if err := e.run(context.Background(), Options{}); err != nil {
		t.Fatal(err)
	}
	if imp, _ := g(); imp != 0 {
		t.Errorf("static vs static improvement = %v, want exactly 0", imp)
	}
}

// TestBaselineKeyCoversCell guards the shared-baseline map against
// aliasing two different jobs: setting any cell field (recursing into
// struct fields) to a non-zero value must change baselineKey, except
// policy and window, which the static baseline fixes.
func TestBaselineKeyCoversCell(t *testing.T) {
	zero := baselineKey(cell{})
	var walk func(typ reflect.Type, path []int, name string)
	walk = func(typ reflect.Type, path []int, name string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			p := append(append([]int(nil), path...), i)
			n := name + "." + f.Name
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, p, n)
				continue
			}
			var c cell
			fv := reflect.ValueOf(&c).Elem().FieldByIndex(p)
			// Unexported fields are not settable through reflect; write
			// through the field's address instead.
			reflect.NewAt(fv.Type(), unsafe.Pointer(fv.UnsafeAddr())).Elem().Set(nonZero(t, n, f.Type))
			ignored := n == ".policy" || n == ".window"
			if changed := baselineKey(c) != zero; changed == ignored {
				t.Errorf("cell%s set to non-zero: key changed = %v, want %v", n, changed, !ignored)
			}
		}
	}
	walk(reflect.TypeOf(cell{}), nil, "")
}

// nonZero returns a non-zero value of typ for TestBaselineKeyCoversCell.
func nonZero(t *testing.T, name string, typ reflect.Type) reflect.Value {
	v := reflect.New(typ).Elem()
	switch typ.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	case reflect.String:
		v.SetString("x")
	case reflect.Pointer:
		v.Set(reflect.New(typ.Elem()))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(typ, 1, 1))
	case reflect.Map:
		v.Set(reflect.MakeMap(typ))
	default:
		t.Fatalf("cell%s: kind %s has no non-zero value here; extend nonZero", name, typ.Kind())
	}
	return v
}

// TestPairedSharesBaselineCells pins the baseline dedupe: at one run
// per point, fig3a, fig3b and fig6 enumerate one cell per compared
// policy or window plus one static baseline per distinct job.
func TestPairedSharesBaselineCells(t *testing.T) {
	for id, want := range map[string]float64{
		"fig3a": 6*3 + 6, // 6 analyses x 3 policies, one baseline per analysis
		"fig3b": 9*3 + 9, // 3 workloads x 3 scales x 3 policies, one baseline per job
		"fig6":  5*3 + 3, // 5 windows x 3 sync rates, one baseline per sync rate
	} {
		hub := telemetry.New(telemetry.Options{})
		e, _ := Get(id)
		if err := e.Run(context.Background(), Options{Steps: 25, Runs: 1, Telemetry: hub}, io.Discard); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		cells := hub.Registry().Counter("seesaw_campaign_cells_total", "", "campaign", "status").With(id, "ok").Value()
		if cells != want {
			t.Errorf("%s ran %v cells, want %v", id, cells, want)
		}
	}
}

func TestRunCellDefaults(t *testing.T) {
	res, err := runCell(context.Background(), cell{spec: specAt(8, 16, 1, 20, testTasks()), policy: "seesaw", jobSeed: 1, runSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 {
		t.Error("no runtime")
	}
	// Default cap mode applies a 110 W cap.
	rec := res.SyncLog.Records[0]
	if rec.SimCap != units.Watts(110) {
		t.Errorf("default cap = %v, want 110", rec.SimCap)
	}
}

func testTasks() []workload.AnalysisTask {
	return workload.Tasks("msd")
}

func TestConstraintsForBudget(t *testing.T) {
	c := constraintsFor(128, 110)
	if c.Budget != 14080 {
		t.Errorf("budget = %v", c.Budget)
	}
	if err := c.Validate(128); err != nil {
		t.Errorf("constraints invalid: %v", err)
	}
	if _ = core.EvenSplit(c, 128); core.EvenSplit(c, 128) != 110 {
		t.Error("even split wrong")
	}
}

func TestRunSelfTest(t *testing.T) {
	var buf bytes.Buffer
	ok, err := RunSelfTest(context.Background(), Options{BaseSeed: 1}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("selftest failed:\n%s", buf.String())
	}
	if c := strings.Count(buf.String(), "PASS"); c != 5 {
		t.Errorf("expected 5 PASS lines, got %d:\n%s", c, buf.String())
	}
}
