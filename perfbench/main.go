// Command perfbench is the repository's benchmark. It drives the
// simulator end to end on one of two workloads and prints every metric
// by name, with its unit and sample count, then one JSON result line:
//
//	bash perfbench/run.sh --workload suite|warm --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// is the separate traced run: it records spans around every call the
// benchmark makes into a layer, takes a CPU profile grouped by package,
// and reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// outDir receives the traced run's span file and CPU profile, and the
	// daemon workloads' temporary cache directories.
	outDir string
	// spec is the metric list of BENCHMARK.json, read from the working
	// directory: the result line carries exactly the metrics it names
	// for the run's mode.
	spec benchSpec
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	var probe bool
	var record string
	fs.StringVar(&o.workload, "workload", "", "workload: suite or warm")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "seconds to measure")
	fs.IntVar(&traceFlag, "trace", 0, "1 for the traced run (per-layer metrics)")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for spans, profiles and scratch caches")
	fs.BoolVar(&probe, "setup-probe", false, "internal: run the workload's set-up once and print its seconds and peak RSS")
	fs.StringVar(&record, "record-reference", "", "write the suite's output digests to this file instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !probe && record == "" {
		spec, err := loadSpec("BENCHMARK.json")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		o.spec = spec
	}

	var rep *report
	var err error
	switch {
	case record != "":
		err = recordSuiteReference(record)
	case o.workload == "suite" && probe:
		err = suiteSetupProbe(stdout)
	case o.workload == "suite":
		rep, err = runSuite(o)
	case o.workload == "warm" && probe:
		err = warmSetupProbe(o, stdout)
	case o.workload == "warm":
		rep, err = runWarm(o)
	default:
		err = fmt.Errorf("unknown workload %q (want suite or warm)", o.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if rep == nil {
		return 0
	}
	if err := rep.write(stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported value and the number of samples behind it
// (0 for a metric the workload does not exercise).
type metric struct {
	value float64
	unit  string
	n     int
}

// report collects a run's metrics and correctness outcomes.
type report struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64, n int) {
	r.metrics[name] = metric{value: v, unit: unit, n: n}
}

// fail counts one failed operation and keeps its description.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// write prints the metric table, then the JSON result line with the
// metrics BENCHMARK.json lists for this mode.
func (r *report) write(w io.Writer, o options) error {
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	r.set("error_rate", "ratio", rate, r.attempted)

	listed := o.spec.EndToEnd
	if o.trace {
		listed = o.spec.PerLayer
	}
	out := map[string]map[string]any{}
	for _, s := range listed {
		m, ok := r.metrics[s.Name]
		if !ok {
			if !o.trace {
				return fmt.Errorf("workload %s produced no %s", o.workload, s.Name)
			}
			// A layer this workload does not exercise: zero, with no
			// samples behind it.
			m = metric{unit: s.Unit}
			r.metrics[s.Name] = m
		}
		if m.unit != s.Unit {
			return fmt.Errorf("metric %s measured in %s, listed in %s", s.Name, m.unit, s.Unit)
		}
		out[s.Name] = map[string]any{"value": m.value, "unit": m.unit}
	}

	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	mode := "end-to-end (untraced)"
	if o.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g: %s metrics\n", o.workload, o.seed, o.seconds, mode)
	fmt.Fprintf(w, "%-34s %16s  %-6s %8s\n", "metric", "value", "unit", "samples")
	for _, name := range names {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-34s %16.6g  %-6s %8d\n", name, m.value, m.unit, m.n)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	b, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0 && r.attempted > 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// peakRSSMB is the process's peak resident set size (getrusage maxrss,
// which Linux reports in KiB) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// probeSetups runs the workload's set-up in n child processes, one after
// the other, and returns each one's set-up seconds and peak RSS. A
// process fills its input cache and thread pools once, so only a fresh
// process shows what a cold set-up costs.
func probeSetups(o options, n int) (secs, rssMB []float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		out, err := exec.Command(self, "--setup-probe", "--workload", o.workload,
			"--seed", strconv.FormatInt(o.seed, 10), "--out", o.outDir).Output()
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, nil, fmt.Errorf("set-up probe: %w: %s", err, strings.TrimSpace(string(ee.Stderr)))
		}
		if err != nil {
			return nil, nil, fmt.Errorf("set-up probe: %w", err)
		}
		f := strings.Fields(string(out))
		if len(f) < 2 {
			return nil, nil, fmt.Errorf("set-up probe printed %q", out)
		}
		s, err := strconv.ParseFloat(f[len(f)-2], 64)
		if err != nil {
			return nil, nil, err
		}
		r, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return nil, nil, err
		}
		secs, rssMB = append(secs, s), append(rssMB, r)
	}
	return secs, rssMB, nil
}

// traceFile names an artifact of the traced run.
func traceFile(o options, suffix string) string {
	return filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.%s", o.workload, o.seed, suffix))
}

// shortPkg names an internal package by its last path element.
func shortPkg(pkg string) string {
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		return pkg[i+1:]
	}
	return pkg
}
