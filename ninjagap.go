// Package ninjagap reproduces the ISCA 2012 study "Can traditional
// programming bridge the Ninja performance gap for parallel computing
// applications?" (Satish et al.) as a self-contained Go library.
//
// The library contains everything the study depends on, built from
// scratch: parameterized machine models of the paper's processors
// (Westmere, MIC, and earlier generations), a cache-hierarchy and
// memory-bandwidth simulator, a vector virtual machine with a calibrated
// cost model, a vectorizing compiler for a restricted-C source IR
// (dependence analysis, pragmas, if-conversion, reductions), the paper's
// eleven throughput-computing benchmarks in five optimization versions
// each (naive, auto-vectorized, pragma-annotated, algorithmically
// restructured, hand-written "ninja"), and experiment drivers that
// regenerate every table and figure of the evaluation.
//
// Quick start:
//
//	bench, _ := ninjagap.Benchmark("blackscholes")
//	m := ninjagap.WestmereX980()
//	meas, _ := ninjagap.Run(bench, ninjagap.Naive, m, 1<<16)
//	fmt.Println(meas.Res) // simulated time, GF/s, binding constraint
//
// or regenerate a whole figure:
//
//	fig, _ := ninjagap.Fig1NinjaGap(ninjagap.Config{Scale: 1})
//	fmt.Println(fig.Render(ninjagap.Naive))
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package ninjagap

import (
	"ninjagap/internal/compiler"
	"ninjagap/internal/exec"
	"ninjagap/internal/gap"
	"ninjagap/internal/kernels"
	"ninjagap/internal/lang"
	"ninjagap/internal/machine"
	"ninjagap/internal/vm"
)

// Machine is a processor model (cores, SIMD width, caches, bandwidth,
// programmability features).
type Machine = machine.Machine

// Features are the optional hardware-programmability features (gather,
// scatter, FMA, prefetch, SMT).
type Features = machine.Features

// Preset machines.
var (
	// WestmereX980 is the paper's primary platform: 6-core Core i7 X980.
	WestmereX980 = machine.WestmereX980
	// KnightsFerry is the paper's Intel MIC manycore platform.
	KnightsFerry = machine.KnightsFerry
	// NehalemI7 and Core2Quad are the earlier generations of the trend
	// experiment; FutureWide is the hypothetical wide-SIMD successor.
	NehalemI7  = machine.NehalemI7
	Core2Quad  = machine.Core2Quad
	FutureWide = machine.FutureWide
	// Machines lists all presets; MachineByName resolves one.
	Machines      = machine.All
	MachineByName = machine.ByName
)

// Version is a rung of the optimization ladder.
type Version = kernels.Version

// The optimization ladder, from parallelism-unaware source to hand-tuned
// code.
const (
	Naive   = kernels.Naive
	AutoVec = kernels.AutoVec
	Pragma  = kernels.Pragma
	Algo    = kernels.Algo
	Ninja   = kernels.Ninja
)

// Versions lists the ladder in order.
var Versions = kernels.Versions

// Bench is one suite benchmark.
type Bench = kernels.Benchmark

// Benchmarks returns the full throughput-computing suite.
var Benchmarks = kernels.All

// Benchmark resolves a suite member by name ("blackscholes", "nbody", ...).
var Benchmark = kernels.ByName

// Instance is a prepared, runnable benchmark version.
type Instance = kernels.Instance

// Result is a simulated execution result (time, GFLOP/s, cycle breakdown,
// cache statistics).
type Result = exec.Result

// Options controls engine execution (thread count, prefetch ablation).
type Options = exec.Options

// Execute runs a prepared instance on a machine.
func Execute(inst *Instance, m *Machine, opt Options) (*Result, error) {
	return exec.Run(inst.Prog, inst.Arrays, m, opt)
}

// Measurement is a validated run of one benchmark version.
type Measurement = gap.Measurement

// Cell is one point of an experiment grid (benchmark x version x machine
// x size), the unit the experiment scheduler fans out.
type Cell = gap.Cell

// Scheduler fans measurement cells out across a bounded worker pool with
// memoized, deterministically ordered results.
type Scheduler = gap.Scheduler

// Memo is a concurrency-safe measurement cache; NewMemo builds one for a
// private Scheduler (experiments share a process-wide cache).
type Memo = gap.Memo

// NewMemo / NewScheduler build private caches and pools; ResetMemo clears
// the process-wide cache (the benchmark harness uses it so memoization
// does not turn repeated figure regenerations into lookups); MemoStats
// reports process-wide cache traffic and MemoLen its size.
var (
	NewMemo      = gap.NewMemo
	NewScheduler = gap.NewScheduler
	ResetMemo    = gap.ResetMemo
	MemoStats    = gap.MemoStats
	MemoLen      = gap.MemoLen
)

// SetCacheDir attaches a persistent on-disk measurement cache to the
// process-wide memo (warm restarts: cells measured by earlier processes
// sharing the directory are served from disk, never re-simulated);
// CacheDirStats reports its traffic and FormatMemoStats renders the
// one-line summary the CLI prints. See docs/CACHE_FORMAT.md for the
// entry format and invalidation rules.
var (
	SetCacheDir     = gap.SetCacheDir
	CacheDirStats   = gap.CacheDirStats
	FormatMemoStats = gap.FormatMemoStats
)

// Output is a driver's renderable output (text, JSON data, optional CSV);
// Dispatch runs any experiment driver by ID ("table1", "fig1".."fig8",
// "ablate", "bench-export") and DriverIDs lists them in `all` order.
// cmd/ninjagap and the ninjagapd daemon both render through this layer,
// so their encodings are byte-identical.
type Output = gap.Output

// CompilerFigure is fig4's payload (ladder + vectorization diagnostics).
type CompilerFigure = gap.CompilerFigure

var (
	Dispatch  = gap.Dispatch
	DriverIDs = gap.DriverIDs
	// RunCells measures an explicit cell list through the configured
	// scheduler and the process-wide memo cache.
	RunCells = gap.RunCells
)

// Run prepares, executes, and functionally validates one benchmark version
// at size n (serial versions run one thread, per the paper's gap
// definition).
func Run(b Bench, v Version, m *Machine, n int) (*Measurement, error) {
	return gap.Measure(b, v, m, gap.LegalN(b, n), false)
}

// Config scales and scopes experiments.
type Config = gap.Config

// ParseScale resolves a -scale flag value: a named preset (smoke=0.05,
// small=0.1, medium=0.5, full=1) or a positive number.
var ParseScale = gap.ParseScale

// Kernel is a restricted-C source program; Array declares one of its
// array parameters (element type, length, record layout, restrict).
type Kernel = lang.Kernel

// ParseKernel reads a kernel from the restricted-C surface syntax:
//
//	kernel saxpy(f32 restrict x[4096], f32 restrict y[4096]) {
//	    #pragma omp parallel for
//	    #pragma simd
//	    for (i = 0; i < 4096; i++) { y[i] = 2.5*x[i] + y[i]; }
//	}
var ParseKernel = lang.Parse

// CompileOptions selects the compilation level for user kernels; the
// presets mirror the benchmark versions.
type CompileOptions = compiler.Options

// Compiler option presets.
var (
	NaiveOptions   = compiler.NaiveOptions
	AutoVecOptions = compiler.AutoVecOptions
	PragmaOptions  = compiler.PragmaOptions
)

// Compiled is a compiled user kernel with its vectorization report.
type Compiled = compiler.Result

// CompileKernel lowers a source kernel at the given level.
func CompileKernel(k *Kernel, opt CompileOptions) (*Compiled, error) {
	return compiler.Compile(k, opt)
}

// Buffer is a runtime array bound to a compiled kernel by name.
type Buffer = vm.Array

// NewBuffer allocates a buffer with n elements of the given width (4 or 8
// bytes — the width drives addressing and SIMD lane selection).
var NewBuffer = vm.NewArray

// RunCompiled executes a compiled user kernel on a machine.
func RunCompiled(c *Compiled, buffers map[string]*Buffer, m *Machine, opt Options) (*Result, error) {
	return exec.Run(c.Prog, buffers, m, opt)
}

// Experiment result types, for callers that render or encode figures
// themselves.
type (
	// GapResult is one gap figure's data (fig1).
	GapResult = gap.GapResult
	// TrendResult is the cross-generation trend (fig2).
	TrendResult = gap.TrendResult
	// BreakdownResult is the SIMD/TLP/rest decomposition (fig3).
	BreakdownResult = gap.BreakdownResult
	// LadderResult carries full per-version gaps (fig4/5/6).
	LadderResult = gap.LadderResult
	// HWResult is the hardware-support comparison (fig7).
	HWResult = gap.HWResult
	// EffortResult is the effort-vs-performance table (fig8).
	EffortResult = gap.EffortResult
	// AblationResult holds the design ablations (E9).
	AblationResult = gap.AblationResult
)

// Experiment drivers: each regenerates one table or figure of the paper's
// evaluation (see DESIGN.md's experiment index).
var (
	Fig1NinjaGap    = gap.Fig1NinjaGap
	Fig2Trend       = gap.Fig2Trend
	Fig3Breakdown   = gap.Fig3Breakdown
	Fig4Compiler    = gap.Fig4Compiler
	Fig5Algorithmic = gap.Fig5Algorithmic
	Fig6MIC         = gap.Fig6MIC
	Fig7Hardware    = gap.Fig7Hardware
	Fig8Effort      = gap.Fig8Effort
	Ablate          = gap.Ablate
	Table1Suite     = gap.Table1Suite
	Table2Machines  = gap.Table2Machines
	VecReport       = gap.VecReport
	// BenchExport measures the full grid and packages it as the
	// machine-readable BENCH_results.json snapshot.
	BenchExport = gap.BenchExport
)
