// Command ninjagap runs the reproduction's experiments: every table and
// figure of the paper's evaluation, the ablations, and single benchmark
// runs. Each command's measurement cells are fanned out across a bounded
// worker pool with memoized, deterministically ordered results, so output
// is byte-identical at every -jobs count.
//
// Usage:
//
//	ninjagap <command> [flags]
//
// Commands:
//
//	table1, table2             characterization tables
//	fig1 ... fig8              the evaluation figures
//	ablate                     design ablations (prefetch, SMT, scaling)
//	all                        every table and figure in order
//	bench-export               write a BENCH_results.json perf snapshot
//	run -bench B -version V    one measured run
//	submit FILE                measure a user kernel source file across the
//	                           machine presets (same pipeline, limits and
//	                           memoization as ninjagapd's POST /v1/submit;
//	                           see docs/SUBMIT_API.md)
//	list                       benchmarks, versions, machines
//
// Flags:
//
//	-scale S     problem-size multiplier: a number or a named preset
//	             (smoke=0.05, small=0.1, medium=0.5, full=1; default 1)
//	-cache-dir D persistent measurement cache: cells measured by any
//	             earlier run sharing D are served from disk (see
//	             docs/OPERATIONS.md); prints a cache-traffic summary
//	             to stderr after the run
//	-cpuprofile FILE  write a CPU profile of the whole run
//	-memprofile FILE  write a heap profile at exit
//	-bench list  comma-separated benchmark subset
//	-jobs N      scheduler worker-pool bound (0 = GOMAXPROCS, 1 = serial)
//	-json        emit JSON instead of text (shorthand for -format json)
//	-format F    output encoding: text, json, or csv (csv: tables/export only)
//	-out FILE    write output to FILE instead of stdout
//	             (bench-export default: BENCH_results.json)
//	-machine M   machine for `run` (default WestmereX980)
//	-n N         problem size for `run` (default benchmark's evaluation size)
//	-machines A,B  machine subset for `submit` (default all presets)
//	-versions V,W  version subset for `submit` (default naive,autovec,pragma)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ninjagap"
	"ninjagap/internal/report"
	"ninjagap/internal/submit"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	scaleArg := fs.String("scale", "1", "problem-size multiplier (number or smoke|small|medium|full)")
	benches := fs.String("bench", "", "comma-separated benchmark subset")
	jobs := fs.Int("jobs", 0, "scheduler worker-pool bound (0 = GOMAXPROCS)")
	jsonOut := fs.Bool("json", false, "emit JSON (shorthand for -format json)")
	format := fs.String("format", "", "output encoding: text, json, csv")
	outFile := fs.String("out", "", "write output to file instead of stdout")
	machineName := fs.String("machine", "WestmereX980", "machine for `run`")
	version := fs.String("version", "naive", "version for `run`")
	machinesArg := fs.String("machines", "", "comma-separated machine subset for `submit` (default all)")
	versionsArg := fs.String("versions", "", "comma-separated version subset for `submit` (default naive,autovec,pragma)")
	n := fs.Int("n", 0, "problem size for `run` (0 = evaluation size)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to `file`")
	cacheDir := fs.String("cache-dir", "", "persistent measurement cache directory (warm restarts)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	scale, err := ninjagap.ParseScale(*scaleArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ninjagap:", err)
		os.Exit(2)
	}
	if *cacheDir != "" {
		if err := ninjagap.SetCacheDir(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "ninjagap:", err)
			os.Exit(1)
		}
		// The summary line is what the CI warm-restart smoke job parses
		// ("memo: H memory hits, D disk hits, C computed").
		defer func() { fmt.Fprintln(os.Stderr, "ninjagap:", ninjagap.FormatMemoStats()) }()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ninjagap:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ninjagap:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ninjagap:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ninjagap:", err)
			}
		}()
	}

	cfg := ninjagap.Config{Scale: scale, Jobs: *jobs}
	if *benches != "" {
		cfg.Benches = strings.Split(*benches, ",")
	}
	cfg.Format = *format
	if *jsonOut {
		cfg.Format = "json"
	}
	if cfg.Format == "" {
		cfg.Format = "text"
	}

	if cmd == "submit" {
		if err := runSubmit(cfg, *outFile, *machinesArg, *versionsArg, fs.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "ninjagap:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(cmd, cfg, *outFile, *machineName, *version, *n); err != nil {
		fmt.Fprintln(os.Stderr, "ninjagap:", err)
		os.Exit(1)
	}
}

// runSubmit measures one user-submitted kernel source file through
// internal/submit — the exact code path behind ninjagapd's POST
// /v1/submit, so the -json output here is byte-identical to the daemon's
// response body for the same request, and -cache-dir memoizes the whole
// response under the ninjagap-submit/v1 key family.
func runSubmit(cfg ninjagap.Config, outFile, machines, versions string, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("submit needs exactly one kernel source file (flags go before it: ninjagap submit -machines A,B FILE)")
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	req := submit.Request{Source: string(src)}
	if machines != "" {
		req.Machines = strings.Split(machines, ",")
	}
	if versions != "" {
		req.Versions = strings.Split(versions, ",")
	}
	out, err := submit.NewService(submit.DefaultLimits()).Process(context.Background(), req, cfg)
	if err != nil {
		return err
	}
	w := io.Writer(os.Stdout)
	if outFile != "" {
		f, err := os.Create(outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch cfg.Format {
	case "json":
		_, err = w.Write(out.Body)
	case "text", "":
		var resp submit.Response
		if err := json.Unmarshal(out.Body, &resp); err != nil {
			return err
		}
		_, err = io.WriteString(w, submit.RenderText(&resp))
	default:
		return fmt.Errorf("submit supports text or json output")
	}
	if err != nil {
		return err
	}
	memo := "miss"
	if out.MemoHit {
		memo = "hit"
	}
	fmt.Fprintf(os.Stderr, "ninjagap: submit computed %d cells (response memo %s)\n", out.Computed, memo)
	return nil
}

func run(cmd string, cfg ninjagap.Config, outFile, machineName, version string, n int) error {
	if cmd == "bench-export" && outFile == "" {
		outFile = "BENCH_results.json"
	}
	w := io.Writer(os.Stdout)
	if outFile != "" {
		f, err := os.Create(outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if cmd == "all" {
		return runAll(w, cfg)
	}
	out, err := dispatch(cmd, cfg, machineName, version, n)
	if err != nil {
		return err
	}
	if err := emit(w, cfg.Format, out); err != nil {
		return err
	}
	if outFile != "" {
		fmt.Fprintf(os.Stderr, "ninjagap: wrote %s\n", outFile)
	}
	return nil
}

// output is the shared driver-output type: renderable text plus the data
// value behind it, emitted as text, JSON, or (where tabular) CSV. The
// experiment drivers live behind ninjagap.Dispatch so this CLI and the
// ninjagapd daemon produce byte-identical encodings.
type output = ninjagap.Output

// emit writes one command's output in the selected format.
func emit(w io.Writer, format string, out output) error {
	return out.Emit(w, format)
}

func dispatch(cmd string, cfg ninjagap.Config, machineName, version string, n int) (output, error) {
	switch cmd {
	case "run":
		return runOne(cfg, machineName, version, n)
	case "list":
		return listOutput(), nil
	}
	out, err := ninjagap.Dispatch(cmd, cfg)
	if err != nil && strings.HasPrefix(err.Error(), "unknown experiment") {
		usage()
		return output{}, fmt.Errorf("unknown command %q", cmd)
	}
	return out, err
}

// allOrder is the `all` command's sequence.
var allOrder = ninjagap.DriverIDs()

func runAll(w io.Writer, cfg ninjagap.Config) error {
	if cfg.Format == "csv" {
		return fmt.Errorf("csv output is only supported for table1, table2 and bench-export")
	}
	type entry struct {
		Command string      `json:"command"`
		Result  interface{} `json:"result"`
	}
	var entries []entry
	for _, cmd := range allOrder {
		out, err := dispatch(cmd, cfg, "", "", 0)
		if err != nil {
			return fmt.Errorf("%s: %w", cmd, err)
		}
		if cfg.Format == "json" {
			entries = append(entries, entry{cmd, out.Data})
			continue
		}
		if _, err := io.WriteString(w, out.Text()); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	if cfg.Format == "json" {
		b, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

func runOne(cfg ninjagap.Config, machineName, version string, n int) (output, error) {
	m, err := ninjagap.MachineByName(machineName)
	if err != nil {
		return output{}, err
	}
	if len(cfg.Benches) != 1 {
		return output{}, fmt.Errorf("run needs exactly one -bench")
	}
	b, err := ninjagap.Benchmark(cfg.Benches[0])
	if err != nil {
		return output{}, err
	}
	var v ninjagap.Version
	found := false
	for _, vv := range ninjagap.Versions() {
		if vv.String() == version {
			v, found = vv, true
		}
	}
	if !found {
		return output{}, fmt.Errorf("unknown version %q", version)
	}
	if n == 0 {
		n = int(float64(b.DefaultN()) * cfg.Scale)
	}
	meas, err := ninjagap.Run(b, v, m, n)
	if err != nil {
		return output{}, err
	}
	return output{
		Text: func() string {
			s := fmt.Sprintf("%s/%s on %s (n=%d, %d threads): %v\n",
				b.Name(), v, m.Name, meas.N, meas.Threads, meas.Res)
			if meas.Inst.Report != nil {
				s += meas.Inst.Report.String()
			}
			return s
		},
		Data: report.BenchRecord{
			Bench: meas.Bench, Version: meas.Version.String(), Machine: meas.Machine,
			N: meas.N, Threads: meas.Threads, Seconds: meas.Res.Seconds,
			GFlops: meas.Res.GFlops, BoundBy: meas.Res.BoundBy,
		},
	}, nil
}

func listOutput() output {
	type benchInfo struct {
		Name        string `json:"name"`
		Description string `json:"description"`
		Domain      string `json:"domain"`
		Character   string `json:"character"`
	}
	var bs []benchInfo
	for _, b := range ninjagap.Benchmarks() {
		bs = append(bs, benchInfo{b.Name(), b.Description(), b.Domain(), b.Character()})
	}
	var vs, msNames []string
	for _, v := range ninjagap.Versions() {
		vs = append(vs, v.String())
	}
	for _, m := range ninjagap.Machines() {
		msNames = append(msNames, m.Name)
	}
	return output{
		Text: func() string {
			var sb strings.Builder
			sb.WriteString("benchmarks:\n")
			for _, b := range bs {
				fmt.Fprintf(&sb, "  %-16s %s (%s)\n", b.Name, b.Description, b.Character)
			}
			sb.WriteString("versions:\n")
			for _, v := range vs {
				fmt.Fprintf(&sb, "  %s\n", v)
			}
			sb.WriteString("machines:\n")
			for _, m := range msNames {
				fmt.Fprintf(&sb, "  %s\n", m)
			}
			return sb.String()
		},
		Data: struct {
			Benchmarks []benchInfo `json:"benchmarks"`
			Versions   []string    `json:"versions"`
			Machines   []string    `json:"machines"`
		}{bs, vs, msNames},
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ninjagap <command> [flags]
commands: table1 table2 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 ablate all
          bench-export run submit list
flags:    -scale F|smoke|small|medium|full  -bench a,b,c  -jobs N  -json
          -format text|json|csv  -out FILE  -machine M  -version V  -n N
          -machines A,B  -versions V,W  -cache-dir DIR
          -cpuprofile FILE  -memprofile FILE`)
}
