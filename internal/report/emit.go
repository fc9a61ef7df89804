package report

// Machine-readable emitters: every renderable (Table, BarChart) can also
// be encoded as JSON or CSV, and Snapshot is the schema of the
// `ninjagap bench-export` file — one record per measured cell, suitable
// for tracking the perf trajectory across commits.

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// JSON encodes the table as {"title", "headers", "rows"}.
func (t *Table) JSON() ([]byte, error) {
	return json.MarshalIndent(struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}{t.Title, t.Headers, t.Rows}, "", "  ")
}

// CSV encodes the table as RFC-4180 CSV: a header row, then data rows.
// The title is not part of the stream (it is presentation, not data).
func (t *Table) CSV() string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	_ = w.Write(t.Headers)
	_ = w.WriteAll(t.Rows) // WriteAll flushes
	return sb.String()
}

// JSON encodes the chart as {"title", "unit", "bars": [{label, value, note}]}.
func (c *BarChart) JSON() ([]byte, error) {
	type jsonBar struct {
		Label string  `json:"label"`
		Value float64 `json:"value"`
		Note  string  `json:"note,omitempty"`
	}
	bars := make([]jsonBar, len(c.bars))
	for i, b := range c.bars {
		bars[i] = jsonBar{b.label, b.value, b.note}
	}
	return json.MarshalIndent(struct {
		Title string    `json:"title"`
		Unit  string    `json:"unit"`
		Bars  []jsonBar `json:"bars"`
	}{c.Title, c.Unit, bars}, "", "  ")
}

// CSV encodes the chart as label,value,note rows.
func (c *BarChart) CSV() string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	_ = w.Write([]string{"label", "value", "note"})
	for _, b := range c.bars {
		_ = w.Write([]string{b.label, fmt.Sprintf("%g", b.value), b.note})
	}
	w.Flush()
	return sb.String()
}

// SnapshotSchema versions the bench-export format.
const SnapshotSchema = "ninjagap-bench/v1"

// MachineInfo is the machine metadata embedded in a Snapshot (a plain
// subset of machine.Machine, kept here so the report package stays
// dependency-free).
type MachineInfo struct {
	Name          string  `json:"name"`
	Year          int     `json:"year"`
	Cores         int     `json:"cores"`
	SMT           int     `json:"smt"`
	SIMDF32       int     `json:"simd_f32"`
	FreqGHz       float64 `json:"freq_ghz"`
	BandwidthGBps float64 `json:"bandwidth_gbps"`
	HWGather      bool    `json:"hw_gather"`
	FMA           bool    `json:"fma"`
}

// BenchRecord is one measured cell of the experiment grid in
// machine-readable form.
type BenchRecord struct {
	Bench   string `json:"bench"`
	Version string `json:"version"`
	Machine string `json:"machine"`
	N       int    `json:"n"`
	Threads int    `json:"threads"`
	// Seconds is the simulated execution time of the cell.
	Seconds float64 `json:"seconds"`
	GFlops  float64 `json:"gflops"`
	// Gap is Seconds over the same bench+machine ninja Seconds (1.0 for
	// the ninja row itself).
	Gap float64 `json:"gap"`
	// Speedup is the same bench+machine naive Seconds over Seconds (1.0
	// for the naive row itself).
	Speedup float64 `json:"speedup"`
	// BoundBy names the binding constraint of the run (core ports,
	// bandwidth, latency...).
	BoundBy string `json:"bound_by"`
}

// Snapshot is the full bench-export document.
type Snapshot struct {
	Schema string `json:"schema"`
	// Scale is the problem-size multiplier the grid was measured at.
	Scale float64 `json:"scale"`
	// Jobs is the scheduler worker-pool bound used (0 = GOMAXPROCS).
	Jobs     int           `json:"jobs"`
	Machines []MachineInfo `json:"machines"`
	Records  []BenchRecord `json:"records"`
	// Summary holds headline aggregates ("<machine>/<version> avg gap",
	// geomean gap) for quick cross-commit diffing.
	Summary map[string]float64 `json:"summary"`
}

// JSON encodes the snapshot.
func (s *Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// WriteJSON writes the snapshot to w with a trailing newline.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	b, err := s.JSON()
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
