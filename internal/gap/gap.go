// Package gap implements the paper's experiments: it runs benchmark
// versions through the simulator, forms the Ninja-gap ratios, and
// regenerates every table and figure of the evaluation (see DESIGN.md's
// experiment index). All runs validate their functional output against the
// pure-Go references before any number is reported.
package gap

import (
	"context"

	"ninjagap/internal/exec"
	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
)

// Config scales and scopes an experiment run.
type Config struct {
	// Scale multiplies each benchmark's default problem size (1.0 = the
	// evaluation size; tests use small fractions). 0 means 1.0.
	Scale float64
	// Benches restricts the suite (nil = all).
	Benches []string
	// Jobs bounds the experiment scheduler's worker pool: every figure
	// and table fans its measurement cells out across this many
	// goroutines. 0 means GOMAXPROCS; 1 forces serial execution. Output
	// is byte-identical at every job count (results are assembled in
	// cell order).
	Jobs int
	// Format selects the report encoding for CLI output: "text"
	// (default), "json", or "csv". The library renderers ignore it; the
	// cmd/ninjagap output layer honors it.
	Format string

	// ctx bounds every scheduler run the experiment drivers perform; nil
	// means context.Background(). Set it with WithContext — the
	// measurement daemon uses it to plumb per-request deadlines through
	// Scheduler.Run into cell execution.
	ctx context.Context
}

// WithContext returns a copy of the Config whose experiment runs are
// bounded by ctx: a deadline or cancellation abandons unstarted cells and
// stops in-flight cells at their next phase boundary.
func (c Config) WithContext(ctx context.Context) Config {
	c.ctx = ctx
	return c
}

// context resolves the configured run context.
func (c Config) context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

// benches resolves the configured benchmark list.
func (c Config) benches() ([]kernels.Benchmark, error) {
	if len(c.Benches) == 0 {
		return kernels.All(), nil
	}
	out := make([]kernels.Benchmark, 0, len(c.Benches))
	for _, name := range c.Benches {
		b, err := kernels.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// LegalN rounds a scaled problem size to one the benchmark accepts
// (power-of-two keys for mergesort, block multiples for the blocked
// kernels, sane minimum grid sizes).
func LegalN(b kernels.Benchmark, n int) int {
	min := b.TestN()
	if n < min {
		n = min
	}
	switch b.Name() {
	case "mergesort":
		p := 1
		for p*2 <= n {
			p *= 2
		}
		return p
	case "complexconv", "libor", "blackscholes", "treesearch":
		const q = 64
		return (n / q) * q
	default:
		return n
	}
}

// SizeFor returns the scaled legal size for a benchmark.
func SizeFor(b kernels.Benchmark, cfg Config) int {
	return LegalN(b, int(float64(b.DefaultN())*cfg.scale()))
}

// Measurement is one validated simulated run.
type Measurement struct {
	Bench   string
	Version kernels.Version
	Machine string
	N       int
	Threads int
	Res     *exec.Result
	Inst    *kernels.Instance
}

// Seconds is the simulated execution time.
func (m *Measurement) Seconds() float64 { return m.Res.Seconds }

// Measure prepares, runs and validates one benchmark version. Serial
// versions (naive, autovec) run on one thread per the paper's gap
// definition; the rest use every hardware thread. Results are memoized
// process-wide: a (benchmark, version, machine, n) cell shared between
// figures is measured exactly once (see Memo / ResetMemo).
func Measure(b kernels.Benchmark, v kernels.Version, m *machine.Machine, n int) (*Measurement, error) {
	ms, err := RunCells(Config{}, []Cell{{Bench: b, Version: v, Machine: m, N: n}})
	if err != nil {
		return nil, err
	}
	return ms[0], nil
}

// RunCells measures an explicit cell list through the configured
// scheduler (process-wide memo cache, cfg's job bound and context). The
// measurement daemon's /v1/measure endpoint uses it so ad-hoc cells share
// the figures' cache and admission path.
func RunCells(cfg Config, cells []Cell) ([]*Measurement, error) {
	return cfg.scheduler().Run(cfg.context(), cells)
}
