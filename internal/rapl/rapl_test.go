package rapl

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"seesaw/internal/telemetry"
	"seesaw/internal/units"
)

func theta(t *testing.T) *Domain {
	t.Helper()
	d, err := NewDomain(Theta())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// allowed is Grant's allowance without the dual-cap flag.
func allowed(d *Domain, demand units.Watts) units.Watts {
	a, _ := d.Grant(demand)
	return a
}

func TestNewDomainValidation(t *testing.T) {
	bad := []Config{
		{MinCap: 0, TDP: 215, LongWindow: 1},
		{MinCap: 100, TDP: 100, LongWindow: 1},
		{MinCap: 98, TDP: 215, LongWindow: 0},
	}
	for i, cfg := range bad {
		if _, err := NewDomain(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if _, err := NewDomain(Theta()); err != nil {
		t.Errorf("Theta config rejected: %v", err)
	}
}

func TestMustNewDomainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewDomain with bad config should panic")
		}
	}()
	MustNewDomain(Config{})
}

func TestCapClamping(t *testing.T) {
	d := theta(t)
	d.SetLongCap(50) // below MinCap
	d.Advance(0.02, 100)
	if got := d.LongCap(); got != 98 {
		t.Errorf("cap below MinCap clamped to %v, want 98", got)
	}
	d.SetLongCap(500) // above TDP
	d.Advance(0.02, 100)
	if got := d.LongCap(); got != 215 {
		t.Errorf("cap above TDP clamped to %v, want 215", got)
	}
	d.SetLongCap(0) // uncap
	d.Advance(0.02, 100)
	if got := d.LongCap(); got != 0 {
		t.Errorf("zero cap should remove the limit, got %v", got)
	}
}

func TestActuationLatency(t *testing.T) {
	d := theta(t)
	d.SetLongCap(110)
	// Before the latency elapses, the cap is not in force.
	if got := allowed(d, 200); got != 200 {
		t.Errorf("cap applied before actuation latency: allowed %v", got)
	}
	d.Advance(0.005, 150)
	if got := allowed(d, 200); got != 200 {
		t.Errorf("cap applied at 5ms, before the 10ms latency: %v", got)
	}
	d.Advance(0.006, 150)
	if got := allowed(d, 200); got != 110 {
		t.Errorf("cap not applied after latency: allowed %v, want 110", got)
	}
}

func TestEnergyCounter(t *testing.T) {
	d := theta(t)
	d.Advance(2, 100)
	if got := d.Energy(); got != 200 {
		t.Errorf("energy = %v, want 200 J", got)
	}
	d.Advance(1, 110)
	if got := d.Energy(); got != 310 {
		t.Errorf("energy = %v, want 310 J", got)
	}
}

func TestEnergyMonotonic(t *testing.T) {
	d := theta(t)
	prev := d.Energy()
	for i := 0; i < 100; i++ {
		d.Advance(0.1, units.Watts(90+i%60))
		if e := d.Energy(); e < prev {
			t.Fatalf("energy counter decreased: %v -> %v", prev, e)
		} else {
			prev = e
		}
	}
}

func TestAdvancePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative Advance should panic")
		}
	}()
	theta(t).Advance(-1, 100)
}

func TestGrant(t *testing.T) {
	d := theta(t)
	if got := allowed(d, 300); got != 215 {
		t.Errorf("uncapped grant %v, want TDP", got)
	}
	d.SetLongCap(110)
	d.Advance(0.02, 100)
	if got := allowed(d, 180); got != 110 {
		t.Errorf("grant %v, want 110", got)
	}
	if got := allowed(d, 105); got != 105 {
		t.Errorf("demand below cap should pass through: %v", got)
	}
}

func TestDualCapMargin(t *testing.T) {
	d := theta(t)
	d.SetLongCap(110)
	d.SetShortCap(110)
	d.Advance(0.02, 100)
	got, dual := d.Grant(180)
	want := units.Watts(110 * (1 - Theta().DualCapMargin))
	if !units.NearlyEqual(float64(got), float64(want), 1e-9) {
		t.Errorf("dual-cap regulation at %v, want %v (slightly below the request)", got, want)
	}
	if !dual {
		t.Error("Grant did not flag dual-cap regulation")
	}
}

func TestShortCapOnly(t *testing.T) {
	d := theta(t)
	d.SetShortCap(120)
	d.Advance(0.02, 100)
	got, dual := d.Grant(180)
	if got != 120 {
		t.Errorf("short-cap-only grant %v, want 120", got)
	}
	if dual {
		t.Error("a short cap alone is not dual-cap regulation")
	}
}

func TestGrantNeverExceedsCap(t *testing.T) {
	f := func(demand float64, capW float64) bool {
		d := MustNewDomain(Theta())
		c := units.Watts(98 + mod(capW, 117))
		d.SetLongCap(c)
		d.Advance(0.02, 100)
		got := allowed(d, units.Watts(mod(demand, 500)))
		return got <= d.LongCap()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestViolationTelemetry drives the window's one reader: with a
// telemetry site attached, draw held above 1.02x the cap for longer
// than LongWindow is reported as exactly one BudgetViolation per
// excursion, counted on seesaw_budget_violations_total, and a drain
// below the cap re-arms the report for the next excursion.
func TestViolationTelemetry(t *testing.T) {
	d := theta(t)
	hub := telemetry.New(telemetry.Options{})
	d.SetTelemetry(hub, "n0", true)
	d.SetLongCap(110)
	d.Advance(0.02, 100) // actuate
	// hold draws p for tenths x 100 ms.
	hold := func(p units.Watts, tenths int) {
		for i := 0; i < tenths; i++ {
			d.Advance(0.1, p)
		}
	}
	violations := func() []telemetry.BudgetViolation {
		var out []telemetry.BudgetViolation
		for _, e := range hub.Events() {
			if v, ok := e.(telemetry.BudgetViolation); ok {
				out = append(out, v)
			}
		}
		return out
	}
	counter := func() string {
		var sb strings.Builder
		if err := hub.Registry().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if strings.HasPrefix(line, `seesaw_budget_violations_total{node="n0"} `) {
				return strings.TrimPrefix(line, `seesaw_budget_violations_total{node="n0"} `)
			}
		}
		return "absent"
	}

	hold(100, 20) // below the cap: nothing to report
	if n := len(violations()); n != 0 {
		t.Fatalf("%d violations while drawing below the cap", n)
	}
	hold(180, 15) // first excursion, longer than the window
	vs := violations()
	if len(vs) != 1 {
		t.Fatalf("first excursion reported %d violations, want 1", len(vs))
	}
	if v := vs[0]; v.Node != "n0" || v.LimitW != 110 || v.ObservedW <= 110*1.02 {
		t.Errorf("violation = %+v, want node n0, limit 110 W, observed above 112.2 W", v)
	}
	if got := counter(); got != "1" {
		t.Errorf("seesaw_budget_violations_total = %s, want 1", got)
	}
	hold(90, 20) // drain below the cap: re-arms
	if n := len(violations()); n != 1 {
		t.Fatalf("drain reported %d violations in total, want still 1", n)
	}
	hold(180, 15) // second excursion
	if n := len(violations()); n != 2 {
		t.Errorf("second excursion: %d violations in total, want 2", n)
	}
	if got := counter(); got != "2" {
		t.Errorf("seesaw_budget_violations_total = %s, want 2", got)
	}
}

func mod(x, m float64) float64 {
	v := math.Mod(math.Abs(x), m)
	if math.IsNaN(v) {
		return 0
	}
	return v
}
