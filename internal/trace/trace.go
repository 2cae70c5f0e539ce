// Package trace records per-synchronization data and power samples from
// simulated in-situ jobs, and renders them as CSV or aligned text tables.
// Every figure in the paper is regenerated from these records.
package trace

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"seesaw/internal/core"
	"seesaw/internal/units"
)

// Sample is one point of a power/time series.
type Sample struct {
	// Time is the virtual timestamp of the sample.
	Time units.Seconds
	// Value is the sampled quantity (power in Watts for power traces).
	Value float64
}

// csvFloat formats v for a CSV cell with the given precision.
// Non-finite values render as the canonical tokens NaN, +Inf and -Inf
// (all accepted by strconv.ParseFloat) so a defective sample can never
// produce an unparsable row.
func csvFloat(v float64, prec int) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'f', prec, 64)
}

// SyncRecord captures the observables of one simulation/analysis
// synchronization interval — the unit at which every policy in the paper
// acts.
type SyncRecord struct {
	// Step is the synchronization index (1-based; step 0 is outside the
	// main loop and ignored, as in the paper's Section VII-B1).
	Step int
	// SimTime and AnaTime are the interval durations of the slowest
	// simulation and analysis ranks.
	SimTime, AnaTime units.Seconds
	// SimPower and AnaPower are measured average powers per node of
	// each partition over the interval.
	SimPower, AnaPower units.Watts
	// SimCap and AnaCap are the per-node power caps in force during the
	// interval.
	SimCap, AnaCap units.Watts
	// Overhead is the time spent inside the power-allocation call at
	// the end of the interval.
	Overhead units.Seconds
}

// NewSyncRecord aggregates one synchronization's per-node measures
// into its record: per partition, the slowest node's busy time, the
// per-node average power (the paper's per-node power plots) and the cap
// in force. Dead nodes carry no time or power and are skipped.
func NewSyncRecord(step int, nodes []core.NodeMeasure, overhead units.Seconds) SyncRecord {
	rec := SyncRecord{Step: step, Overhead: overhead}
	var nSim, nAna int
	for i := range nodes {
		n := &nodes[i]
		if n.Health == core.Dead {
			continue
		}
		switch n.Role {
		case core.RoleSimulation:
			nSim++
			rec.SimPower += n.Power
			rec.SimCap = n.Cap
			if n.BusyTime > rec.SimTime {
				rec.SimTime = n.BusyTime
			}
		case core.RoleAnalysis:
			nAna++
			rec.AnaPower += n.Power
			rec.AnaCap = n.Cap
			if n.BusyTime > rec.AnaTime {
				rec.AnaTime = n.BusyTime
			}
		}
	}
	if nSim > 0 {
		rec.SimPower /= units.Watts(nSim)
	}
	if nAna > 0 {
		rec.AnaPower /= units.Watts(nAna)
	}
	return rec
}

// IntervalTime returns the wall time of the interval: the slower of the
// two partitions.
func (s SyncRecord) IntervalTime() units.Seconds {
	if s.SimTime > s.AnaTime {
		return s.SimTime
	}
	return s.AnaTime
}

// Slack returns the normalized slack time of the interval — the paper's
// black curves in Figures 4 and 5: |T_S - T_A| divided by the interval
// time. Returns 0 for an empty interval.
func (s SyncRecord) Slack() float64 {
	total := float64(s.IntervalTime())
	if total <= 0 {
		return 0
	}
	d := float64(s.SimTime - s.AnaTime)
	if d < 0 {
		d = -d
	}
	return d / total
}

// SyncLog is the ordered list of synchronization records of one run.
type SyncLog struct {
	Records []SyncRecord
}

// Add appends a record.
func (l *SyncLog) Add(r SyncRecord) { l.Records = append(l.Records, r) }

// Len returns the number of records.
func (l *SyncLog) Len() int { return len(l.Records) }

// TotalTime sums the interval times (the job's main-loop runtime).
func (l *SyncLog) TotalTime() units.Seconds {
	var t units.Seconds
	for _, r := range l.Records {
		t += r.IntervalTime()
	}
	return t
}

// MeanSlackFrom returns the mean normalized slack over records with
// Step >= from; the paper reports slack averages "calculated from the
// 10th step" to skip setup transients.
func (l *SyncLog) MeanSlackFrom(from int) float64 {
	var sum float64
	var n int
	for _, r := range l.Records {
		if r.Step >= from {
			sum += r.Slack()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// WriteCSV emits the log as CSV with one row per synchronization. An
// empty log yields a header-only document; non-finite measurements
// render as NaN/+Inf/-Inf tokens rather than breaking the row format.
func (l *SyncLog) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "step,sim_time_s,ana_time_s,sim_power_w,ana_power_w,sim_cap_w,ana_cap_w,slack,overhead_s"); err != nil {
		return err
	}
	for _, r := range l.Records {
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%s,%s,%s,%s,%s,%s\n",
			r.Step, csvFloat(float64(r.SimTime), 6), csvFloat(float64(r.AnaTime), 6),
			csvFloat(float64(r.SimPower), 3), csvFloat(float64(r.AnaPower), 3),
			csvFloat(float64(r.SimCap), 3), csvFloat(float64(r.AnaCap), 3),
			csvFloat(r.Slack(), 5), csvFloat(float64(r.Overhead), 6)); err != nil {
			return err
		}
	}
	return nil
}

// Table renders aligned text tables for experiment output, mimicking the
// row/column structure of the paper's tables.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case units.Seconds:
			row[i] = fmt.Sprintf("%.3f", float64(v))
		case units.Watts:
			row[i] = fmt.Sprintf("%.1f", float64(v))
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Headers)); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
