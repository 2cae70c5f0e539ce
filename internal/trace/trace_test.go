package trace

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"seesaw/internal/units"
)

func TestSyncRecordSlack(t *testing.T) {
	r := SyncRecord{SimTime: 4, AnaTime: 5}
	if r.IntervalTime() != 5 {
		t.Errorf("IntervalTime = %v", r.IntervalTime())
	}
	if got := r.Slack(); got != 0.2 {
		t.Errorf("Slack = %v, want 0.2", got)
	}
	// Symmetric.
	r2 := SyncRecord{SimTime: 5, AnaTime: 4}
	if r2.Slack() != 0.2 {
		t.Errorf("Slack not symmetric: %v", r2.Slack())
	}
	empty := SyncRecord{}
	if empty.Slack() != 0 {
		t.Error("empty record slack should be 0")
	}
}

func TestSyncLog(t *testing.T) {
	var l SyncLog
	l.Add(SyncRecord{Step: 1, SimTime: 4, AnaTime: 4})
	l.Add(SyncRecord{Step: 2, SimTime: 3, AnaTime: 6})
	if l.Len() != 2 {
		t.Errorf("Len = %d", l.Len())
	}
	if got := l.TotalTime(); got != 10 {
		t.Errorf("TotalTime = %v, want 10", got)
	}
}

func TestMeanSlackFrom(t *testing.T) {
	var l SyncLog
	l.Add(SyncRecord{Step: 1, SimTime: 1, AnaTime: 2})   // slack 0.5, excluded
	l.Add(SyncRecord{Step: 10, SimTime: 4, AnaTime: 5})  // slack 0.2
	l.Add(SyncRecord{Step: 11, SimTime: 5, AnaTime: 10}) // slack 0.5
	got := l.MeanSlackFrom(10)
	if !units.NearlyEqual(got, 0.35, 1e-12) {
		t.Errorf("MeanSlackFrom = %v, want 0.35", got)
	}
	if l.MeanSlackFrom(100) != 0 {
		t.Error("no records in range should give 0")
	}
}

func TestSyncLogCSV(t *testing.T) {
	var l SyncLog
	l.Add(SyncRecord{Step: 1, SimTime: 4, AnaTime: 5, SimPower: 106, AnaPower: 110, SimCap: 108, AnaCap: 112})
	var sb strings.Builder
	if err := l.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "step,sim_time_s") {
		t.Error("missing header")
	}
	if !strings.Contains(out, "1,4.000000,5.000000,106.000,110.000,108.000,112.000") {
		t.Errorf("missing row: %q", out)
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("Title", "col1", "column-two")
	tbl.AddRow("a", 1.23456)
	tbl.AddRow("longer-cell", units.Watts(110))
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Title") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "col1") || !strings.Contains(out, "column-two") {
		t.Error("missing headers")
	}
	if !strings.Contains(out, "1.23") {
		t.Error("float formatting wrong")
	}
	if !strings.Contains(out, "110.0") {
		t.Error("Watts formatting wrong")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestTableFormatsSeconds(t *testing.T) {
	tbl := NewTable("", "v")
	tbl.AddRow(units.Seconds(1.23456))
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "1.235") {
		t.Errorf("Seconds formatting wrong: %q", sb.String())
	}
}

// TestSyncLogCSVEdgeCases covers an empty log and non-finite
// measurements: every emitted row must stay parseable, with NaN, +Inf
// and -Inf rendered as their canonical tokens.
func TestSyncLogCSVEdgeCases(t *testing.T) {
	nan := units.Seconds(math.NaN())
	cases := []struct {
		name    string
		log     SyncLog
		rows    int
		contain []string
	}{
		{name: "empty log is header-only", log: SyncLog{}, rows: 0},
		{
			name: "NaN interval propagates as tokens",
			log: SyncLog{Records: []SyncRecord{{
				Step: 1, SimTime: nan, AnaTime: 2,
				SimPower: units.Watts(math.Inf(1)), AnaPower: units.Watts(math.Inf(-1)),
			}}},
			rows: 1, contain: []string{"NaN", "+Inf", "-Inf"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			if err := tc.log.WriteCSV(&sb); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
			if lines[0] != "step,sim_time_s,ana_time_s,sim_power_w,ana_power_w,sim_cap_w,ana_cap_w,slack,overhead_s" {
				t.Errorf("header = %q", lines[0])
			}
			if got := len(lines) - 1; got != tc.rows {
				t.Fatalf("rows = %d, want %d (%q)", got, tc.rows, lines)
			}
			for _, want := range tc.contain {
				if !strings.Contains(sb.String(), want) {
					t.Errorf("output %q missing %q", sb.String(), want)
				}
			}
			for _, line := range lines[1:] {
				for _, c := range strings.Split(line, ",") {
					if _, err := strconv.ParseFloat(c, 64); err != nil {
						t.Errorf("cell %q not parseable: %v", c, err)
					}
				}
			}
		})
	}
}
