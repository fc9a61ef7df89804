package gap

// The driver registry: every table, figure and export of the evaluation
// behind one string-keyed dispatch. cmd/ninjagap and the measurement
// daemon (internal/serve) both render through Dispatch/Emit, so a figure
// served over HTTP is byte-identical to the CLI's output for the same
// configuration — the CI smoke test diffs the two.

import (
	"encoding/json"
	"fmt"
	"io"

	"ninjagap/internal/kernels"
	"ninjagap/internal/report"
)

// Output pairs a driver's renderable text with its data value, so every
// driver can emit text, JSON, or (where it is tabular) CSV.
type Output struct {
	// Text renders the human-readable encoding (tables, ASCII charts).
	Text func() string
	// Data is the value the JSON encoding marshals.
	Data interface{}
	// CSV renders the tabular encoding; nil means CSV is unsupported.
	CSV func() string
}

// Emit writes the output in the selected format: "text" (or empty),
// "json", or "csv".
func (o Output) Emit(w io.Writer, format string) error {
	switch format {
	case "", "text":
		_, err := io.WriteString(w, o.Text())
		return err
	case "json":
		b, err := json.MarshalIndent(o.Data, "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		_, err = w.Write(b)
		return err
	case "csv":
		if o.CSV == nil {
			return fmt.Errorf("csv output is only supported for table1, table2 and bench-export")
		}
		_, err := io.WriteString(w, o.CSV())
		return err
	default:
		return fmt.Errorf("unknown format %q (want text, json or csv)", format)
	}
}

// CompilerFigure is fig4's payload: the compiler ladder plus the
// auto-vectorization diagnostics that explain it.
type CompilerFigure struct {
	*LadderResult
	Diagnostics string `json:"diagnostics"`
}

// DriverIDs lists the dispatchable experiment IDs in the canonical `all`
// order (bench-export is dispatchable but not part of `all`).
func DriverIDs() []string {
	return []string{"table2", "table1", "fig1", "fig2", "fig3",
		"fig4", "fig5", "fig6", "fig7", "fig8", "ablate"}
}

// tableOutput wraps a report table, which supports all three encodings.
func tableOutput(t *report.Table) Output {
	return Output{Text: t.String, Data: t, CSV: t.CSV}
}

// Dispatch runs the experiment driver named by id ("table1", "table2",
// "fig1".."fig8", "ablate", "bench-export") under cfg and returns its
// output.
func Dispatch(id string, cfg Config) (Output, error) {
	switch id {
	case "table1":
		t, err := Table1Suite(cfg)
		if err != nil {
			return Output{}, err
		}
		return tableOutput(t), nil
	case "table2":
		return tableOutput(Table2Machines()), nil
	case "fig1":
		r, err := Fig1NinjaGap(cfg)
		if err != nil {
			return Output{}, err
		}
		return Output{Text: func() string { return r.Render(kernels.Naive) }, Data: r}, nil
	case "fig2":
		r, err := Fig2Trend(cfg)
		if err != nil {
			return Output{}, err
		}
		return Output{Text: r.Render, Data: r}, nil
	case "fig3":
		r, err := Fig3Breakdown(cfg)
		if err != nil {
			return Output{}, err
		}
		return Output{Text: r.Render, Data: r}, nil
	case "fig4":
		r, err := Fig4Compiler(cfg)
		if err != nil {
			return Output{}, err
		}
		diag, err := VecReport(kernels.AutoVec, cfg)
		if err != nil {
			return Output{}, err
		}
		return Output{
			Text: func() string {
				return r.Render() + "\nauto-vectorization diagnostics:\n" + diag
			},
			Data: &CompilerFigure{r, diag},
		}, nil
	case "fig5":
		r, err := Fig5Algorithmic(cfg)
		if err != nil {
			return Output{}, err
		}
		return Output{Text: r.Render, Data: r}, nil
	case "fig6":
		r, err := Fig6MIC(cfg)
		if err != nil {
			return Output{}, err
		}
		return Output{Text: r.Render, Data: r}, nil
	case "fig7":
		r, err := Fig7Hardware(cfg)
		if err != nil {
			return Output{}, err
		}
		return Output{Text: r.Render, Data: r}, nil
	case "fig8":
		r, err := Fig8Effort(cfg)
		if err != nil {
			return Output{}, err
		}
		return Output{Text: r.Render, Data: r}, nil
	case "ablate":
		r, err := Ablate(cfg)
		if err != nil {
			return Output{}, err
		}
		return Output{Text: r.Render, Data: r}, nil
	case "bench-export":
		snap, err := BenchExport(cfg)
		if err != nil {
			return Output{}, err
		}
		return Output{
			Text: func() string { b, _ := snap.JSON(); return string(b) + "\n" },
			Data: snap,
			CSV:  func() string { return snapshotCSV(snap) },
		}, nil
	default:
		return Output{}, fmt.Errorf("unknown experiment %q", id)
	}
}

// snapshotCSV flattens a snapshot's records.
func snapshotCSV(s *report.Snapshot) string {
	t := report.NewTable("", "bench", "version", "machine", "n", "threads",
		"seconds", "gflops", "gap", "speedup", "bound_by")
	for _, r := range s.Records {
		t.Add(r.Bench, r.Version, r.Machine, fmt.Sprintf("%d", r.N),
			fmt.Sprintf("%d", r.Threads), fmt.Sprintf("%g", r.Seconds),
			fmt.Sprintf("%g", r.GFlops), fmt.Sprintf("%g", r.Gap),
			fmt.Sprintf("%g", r.Speedup), r.BoundBy)
	}
	return t.CSV()
}
