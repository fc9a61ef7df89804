package main

// The suite workload: the paper's evaluation regenerated in process, the
// way `ninjagap all -scale medium -jobs 2` and `bench-export` do it.

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"ninjagap/internal/gap"
	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
)

const (
	suiteScale = 0.5 // the "medium" preset
	suiteJobs  = 2
	// suiteSetups is how many cold first passes set-up time is the
	// median of: one in this process, the rest in child processes, since
	// a process builds its input cache and thread pools only once.
	suiteSetups = 3

	// The paper's headline gaps (abstract): 24X naive-vs-ninja on
	// Westmere, 1.3X after the algorithmic changes.
	paperGap      = 24
	paperFinalGap = 1.3
)

func suiteConfig() gap.Config { return gap.Config{Scale: suiteScale, Jobs: suiteJobs} }

// suiteIDs are the drivers of one pass, in `ninjagap all` order, then
// bench-export.
func suiteIDs() []string { return append(gap.DriverIDs(), "bench-export") }

var suiteFormats = []string{"text", "json"}

// suiteReference holds the SHA-256 of every driver's text and JSON
// output at medium scale, recorded with --record-reference.
//
//go:embed reference/suite-medium.sha256
var suiteReference string

// digests maps "<driver>.<format>" to a hex SHA-256.
type digests map[string]string

func parseDigests(text string) (digests, error) {
	d := digests{}
	for i, line := range strings.Split(strings.TrimSpace(text), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || len(f[0]) != 64 {
			return nil, fmt.Errorf("reference line %d: want \"<sha256> <driver>.<format>\", got %q", i+1, line)
		}
		d[f[1]] = f[0]
	}
	return d, nil
}

// check is the suite's correctness gate: output must hash to the
// recorded digest.
func (d digests) check(key string, output []byte) error {
	want, ok := d[key]
	if !ok {
		return fmt.Errorf("%s: no reference digest", key)
	}
	sum := sha256.Sum256(output)
	if got := hex.EncodeToString(sum[:]); got != want {
		return fmt.Errorf("%s: output digest %s, reference %s", key, got[:16], want[:16])
	}
	return nil
}

// suitePass is one pass's timings and headline numbers.
type suitePass struct {
	seconds  float64
	callsMs  []float64 // per driver: dispatch plus both emits
	gapErr   float64
	finalErr float64
	cells    int64 // cells the pass computed
	lookups  int64 // memo lookups of the pass
}

// runPass runs every driver once from an empty memo and checks each
// output against ref, or, when emit is set, hands each output to emit
// instead.
func runPass(cfg gap.Config, ref digests, rep *report, tr *tracer, emit func(key string, b []byte)) suitePass {
	gap.ResetMemo()
	hits0, misses0 := gap.MemoStats()
	trace := tr.newTrace()
	root := tr.begin(trace, 0, "suite.pass")
	var p suitePass
	start := time.Now()
	var outputs [][]byte
	for _, id := range suiteIDs() {
		t0 := time.Now()
		sp := tr.begin(trace, root, "gap.dispatch/"+id)
		out, err := gap.Dispatch(id, cfg)
		tr.end(sp)
		rep.attempted++
		if err != nil {
			rep.fail("suite %s: %v", id, err)
			continue
		}
		outputs = outputs[:0]
		for _, f := range suiteFormats {
			sp := tr.begin(trace, root, "report.emit/"+id+"/"+f)
			var buf bytes.Buffer
			err := out.Emit(&buf, f)
			tr.end(sp)
			if err != nil {
				rep.fail("suite %s %s: %v", id, f, err)
			}
			outputs = append(outputs, buf.Bytes())
		}
		p.callsMs = append(p.callsMs, ms(time.Since(t0)))
		for i, f := range suiteFormats {
			key := id + "." + f
			if emit != nil {
				emit(key, outputs[i])
			} else if err := ref.check(key, outputs[i]); err != nil {
				rep.fail("suite %v", err)
				break
			}
		}
		switch d := out.Data.(type) {
		case *gap.GapResult:
			if id == "fig1" {
				p.gapErr = math.Abs(d.GeoGap-paperGap) / paperGap
			}
		case *gap.LadderResult:
			if id == "fig5" {
				p.finalErr = math.Abs(d.AvgGap-paperFinalGap) / paperFinalGap
			}
		}
	}
	p.seconds = time.Since(start).Seconds()
	tr.end(root)
	hits1, misses1 := gap.MemoStats()
	p.cells = misses1 - misses0
	p.lookups = hits1 - hits0 + p.cells
	return p
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// recordSuiteReference writes the digests of one pass's outputs.
func recordSuiteReference(path string) error {
	var sb strings.Builder
	rep := newReport()
	runPass(suiteConfig(), nil, rep, nil, func(key string, b []byte) {
		sum := sha256.Sum256(b)
		fmt.Fprintf(&sb, "%s %s\n", hex.EncodeToString(sum[:]), key)
	})
	if rep.failed > 0 {
		return fmt.Errorf("pass failed: %s", strings.Join(rep.problems, "; "))
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

// suiteSetupProbe runs one cold pass in this fresh process and prints
// its seconds and the process's peak RSS: the parent's extra set-up
// samples. The parent checks the outputs of its own passes, so the probe
// only measures.
func suiteSetupProbe(w io.Writer) error {
	rep := newReport()
	p := runPass(suiteConfig(), nil, rep, nil, func(string, []byte) {})
	if rep.failed > 0 {
		return fmt.Errorf("set-up pass failed: %s", strings.Join(rep.problems, "; "))
	}
	_, err := fmt.Fprintln(w, p.seconds, peakRSSMB())
	return err
}

func runSuite(o options) (*report, error) {
	ref, err := parseDigests(suiteReference)
	if err != nil {
		return nil, err
	}
	cfg := suiteConfig()
	rep := newReport()

	// Set-up: the first pass of a process builds the input cache and the
	// thread-context pools. A process that has run one pass is also what
	// `ninjagap all` is, so its peak RSS is the suite's memory metric;
	// GC timing moves it by a third from process to process, hence the
	// median over the set-up processes. The traced run needs steady
	// state, not set-up figures, so it takes one sample.
	var setups, rss []float64
	if !o.trace {
		if setups, rss, err = probeSetups(o, suiteSetups-1); err != nil {
			return nil, err
		}
	}
	first := runPass(cfg, ref, rep, nil, nil)
	setups, rss = append(setups, first.seconds), append(rss, peakRSSMB())
	rep.set("setup_s", "s", median(setups), len(setups))
	rep.set("peak_rss_mb", "MB", median(rss), len(rss))

	if o.trace {
		return rep, traceSuite(o, cfg, ref, rep)
	}

	var passes []suitePass
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(passes) == 0 || time.Now().Before(deadline) {
		// Each pass starts from a collected heap, so the previous pass's
		// garbage does not decide when this one collects.
		runtime.GC()
		passes = append(passes, runPass(cfg, ref, rep, nil, nil))
	}
	// A suite "request" is one driver command. Its latency is the median
	// over the passes of that driver's call, so one slow pass moves no
	// driver's figure.
	var secs []float64
	byDriver := make([][]float64, len(suiteIDs()))
	for _, p := range passes {
		secs = append(secs, p.seconds)
		if p.gapErr != first.gapErr || p.finalErr != first.finalErr {
			rep.fail("suite: headline gaps differ between passes")
		}
		if len(p.callsMs) != len(byDriver) {
			continue // a failed driver; counted already
		}
		for i, c := range p.callsMs {
			byDriver[i] = append(byDriver[i], c)
		}
	}
	var calls []float64
	for _, d := range byDriver {
		if len(d) > 0 {
			calls = append(calls, median(d))
		}
	}
	wall := median(secs)
	rep.set("wall_s", "s", wall, len(secs))
	rep.set("req_per_s", "1/s", float64(len(byDriver))/wall, len(secs))
	rep.set("req_p50_ms", "ms", median(calls), len(calls))
	rep.set("req_p99_ms", "ms", percentile(calls, 99), len(calls))
	rep.set("gap_err", "ratio", first.gapErr, 1)
	rep.set("final_gap_err", "ratio", first.finalErr, 1)
	return rep, nil
}

// traceSuite is the suite's traced run: untraced and traced passes
// alternate for the run's seconds (tracing overhead is their ratio), the
// traced passes are profiled, and the fig1+fig6 grid is then measured
// cell by cell through Prepare, exec.Run and Check.
func traceSuite(o options, cfg gap.Config, ref digests, rep *report) error {
	tr := newTracer()
	prof := &profiler{}
	var plain, traced []float64
	var last suitePass
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(traced) == 0 || time.Now().Before(deadline) {
		runtime.GC()
		plain = append(plain, runPass(cfg, ref, rep, nil, nil).seconds)
		runtime.GC()
		if err := prof.start(); err != nil {
			return err
		}
		last = runPass(cfg, ref, rep, tr, nil)
		if err := prof.stop(); err != nil {
			return err
		}
		traced = append(traced, last.seconds)
	}
	rep.set("trace.overhead_frac", "ratio", median(traced)/median(plain)-1, len(traced))
	rep.set("gap.cells_computed", "count", float64(last.cells), len(traced))
	rep.set("gap.memo_hit_ratio", "ratio", 1-float64(last.cells)/float64(last.lookups), len(traced))
	rep.set("gap.disk_hit_ratio", "ratio", 0, len(traced))
	if err := prof.report(rep, o, len(traced)); err != nil {
		return err
	}

	measureGrid(cfg, rep, tr)

	spans := tr.snapshot()
	spanMetrics(rep, spans)
	return writeSpans(traceFile(o, "spans.jsonl"), spans)
}

// measureGrid runs the fig1+fig6 grid — every benchmark and version on
// the Westmere and the MIC at the suite's sizes — one cell at a time,
// with spans around each layer call, and reports the engine and cache
// statistics of the grid.
func measureGrid(cfg gap.Config, rep *report, tr *tracer) {
	acc := newEngineAcc()
	for _, m := range []*machine.Machine{machine.WestmereX980(), machine.KnightsFerry()} {
		for _, b := range kernels.All() {
			n := gap.SizeFor(b, cfg)
			for _, v := range kernels.Versions() {
				acc.run(rep, tr, b, v, m, n)
			}
		}
	}
	acc.report(rep)
}
