package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"kill:5@20",
		"slow:3@10x2+15",
		"kill:5@20,slow:3@10x2.5+15",
		"kill:0@1,kill:7@3,slow:2@4x1.5+1",
	}
	for _, in := range cases {
		p, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if got := p.String(); got != in {
			t.Errorf("Parse(%q).String() = %q", in, got)
		}
		again, err := Parse(p.String())
		if err != nil || again.String() != p.String() {
			t.Errorf("round-trip of %q unstable: %q, %v", in, again.String(), err)
		}
	}
}

// FuzzParse checks the plan grammar: no input panics Parse, and every
// plan that parses and validates prints (String) to text that parses
// back to a deep-equal plan. Validation is what keeps NaN factors, which
// never compare equal, out of the round trip.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"kill:5@20,slow:3@10x2.0+15",
		"slow:0@100x2+100,kill:255@200",
		"kill:3@40,slow:0@10x2+20",
		"slow:0@20",
		"slow:0@5xNaN+3",
		"slow:0@5xInf+3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil || p.Validate(math.MaxInt) != nil {
			return
		}
		back, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not parse: %v", s, p.String(), err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("Parse(%q) = %+v, but its String %q parses to %+v", s, p, p.String(), back)
		}
	})
}

func TestParseDefaults(t *testing.T) {
	p, err := Parse("slow:3@10")
	if err != nil {
		t.Fatal(err)
	}
	e := p.Events[0]
	if e.Factor != DefaultSlowFactor || e.Window != DefaultSlowWindow {
		t.Errorf("slow defaults: factor %g window %d, want %g/%d", e.Factor, e.Window, DefaultSlowFactor, DefaultSlowWindow)
	}
	if p, err := Parse("slow:3@10x3.5"); err != nil || p.Events[0].Factor != 3.5 || p.Events[0].Window != DefaultSlowWindow {
		t.Errorf("factor-only slow: %+v, %v", p.Events[0], err)
	}
}

func TestParseEmptyAndErrors(t *testing.T) {
	if p, err := Parse("  "); p != nil || err != nil {
		t.Errorf("blank spec: %v, %v", p, err)
	}
	for _, bad := range []string{"kill:5", "boom:1@2", "kill:x@2", "kill:1@y", "slow:1@2xq", "slow:1@2x2+z", "5@20"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestValidate(t *testing.T) {
	ok, err := Parse("kill:5@20,slow:3@10x2+15")
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.Validate(8); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	bad := []struct {
		plan *Plan
		want string
	}{
		{&Plan{Events: []Event{{Kind: Kill, Node: 8, Sync: 1}}}, "outside"},
		{&Plan{Events: []Event{{Kind: Kill, Node: -1, Sync: 1}}}, "outside"},
		{&Plan{Events: []Event{{Kind: Kill, Node: 0, Sync: 0}}}, "1-based"},
		{&Plan{Events: []Event{{Kind: Kill, Node: 0, Sync: 1}, {Kind: Kill, Node: 0, Sync: 2}}}, "twice"},
		{&Plan{Events: []Event{{Kind: Slow, Node: 0, Sync: 1, Factor: 0, Window: 1}}}, "factor"},
		{&Plan{Events: []Event{{Kind: Slow, Node: 0, Sync: 1, Factor: math.NaN(), Window: 1}}}, "factor"},
		{&Plan{Events: []Event{{Kind: Slow, Node: 0, Sync: 1, Factor: math.Inf(1), Window: 1}}}, "factor"},
		{&Plan{Events: []Event{{Kind: Slow, Node: 0, Sync: 1, Factor: 2, Window: 0}}}, "window"},
		{&Plan{Events: []Event{{Kind: Kind(9), Node: 0, Sync: 1}}}, "invalid kind"},
	}
	for _, c := range bad {
		err := c.plan.Validate(8)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%v) = %v, want error containing %q", c.plan, err, c.want)
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(0); err != nil {
		t.Errorf("nil plan: %v", err)
	}
}

func TestQueriesNilSafe(t *testing.T) {
	var p *Plan
	if !p.Empty() || p.SlowFactor(0, 1) != 1 || p.KillSync(3) != 0 {
		t.Error("nil plan queries not inert")
	}
	if p.String() != "" || p.Kills() != nil || p.Rebase(5) != nil {
		t.Error("nil plan derivations not empty")
	}
}

func TestKillQueries(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: Kill, Node: 4, Sync: 10},
		{Kind: Kill, Node: 2, Sync: 3},
	}}
	if got := p.KillSync(4); got != 10 {
		t.Errorf("KillSync(4) = %d, want 10", got)
	}
	if got := p.KillSync(2); got != 3 {
		t.Errorf("KillSync(2) = %d, want 3", got)
	}
	if got := p.KillSync(1); got != 0 {
		t.Errorf("KillSync(1) = %d for an unplanned node, want 0", got)
	}
	if got := p.Kills(); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("Kills() = %v, want [2 4]", got)
	}
}

func TestSlowFactorWindows(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: Slow, Node: 1, Sync: 5, Factor: 2, Window: 3},   // syncs 5,6,7
		{Kind: Slow, Node: 1, Sync: 7, Factor: 1.5, Window: 2}, // syncs 7,8
	}}
	want := map[int]float64{4: 1, 5: 2, 6: 2, 7: 3, 8: 1.5, 9: 1}
	for sync, f := range want {
		if got := p.SlowFactor(1, sync); got != f {
			t.Errorf("SlowFactor(1, %d) = %g, want %g", sync, got, f)
		}
	}
	if p.SlowFactor(2, 6) != 1 {
		t.Error("untargeted node slowed")
	}
}

func TestRebase(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: Kill, Node: 0, Sync: 3},
		{Kind: Kill, Node: 1, Sync: 12},
		{Kind: Slow, Node: 2, Sync: 8, Factor: 2, Window: 6}, // syncs 8..13
		{Kind: Slow, Node: 3, Sync: 2, Factor: 2, Window: 4}, // syncs 2..5, expired
	}}
	// An epoch boundary after 10 syncs: rebase by 10.
	r := p.Rebase(10)
	if r.KillSync(0) != 1 {
		t.Errorf("past kill not clamped to sync 1: %d", r.KillSync(0))
	}
	if r.KillSync(1) != 2 {
		t.Errorf("future kill mis-shifted: %d", r.KillSync(1))
	}
	// The slow on node 2 has 3 syncs left (11,12,13 -> 1,2,3).
	for sync, want := range map[int]float64{1: 2, 3: 2, 4: 1} {
		if got := r.SlowFactor(2, sync); got != want {
			t.Errorf("rebased SlowFactor(2, %d) = %g, want %g", sync, got, want)
		}
	}
	if r.SlowFactor(3, 1) != 1 {
		t.Error("expired slow survived rebase")
	}
	// Rebasing a plan that only held expired slows yields nil.
	exp := &Plan{Events: []Event{{Kind: Slow, Node: 0, Sync: 1, Factor: 2, Window: 2}}}
	if exp.Rebase(10) != nil {
		t.Error("fully expired plan did not rebase to nil")
	}
}

func TestKilledError(t *testing.T) {
	e := &KilledError{Node: 3, Sync: 7}
	if !strings.Contains(e.Error(), "node 3") || !strings.Contains(e.Error(), "sync 7") {
		t.Errorf("unhelpful error: %s", e.Error())
	}
}
