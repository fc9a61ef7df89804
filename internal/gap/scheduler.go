package gap

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"

	"ninjagap/internal/exec"
	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
)

// Cell is one point of an experiment grid: a benchmark version prepared
// at one size and executed on one machine. The figure and table drivers
// enumerate their cells up front and hand them to a Scheduler, which fans
// them out across a worker pool and returns results in cell order —
// parallel execution, deterministic assembly.
type Cell struct {
	Bench   kernels.Benchmark
	Version kernels.Version
	Machine *machine.Machine
	// N is the prepared problem size (already legalized via LegalN).
	N int
	// Threads overrides the version's default thread count when nonzero
	// (Fig 3 isolates SIMD from TLP by running the pragma version on one
	// thread; the ablations sweep explicit counts).
	Threads int
	// DisablePrefetch turns the hardware prefetcher off (ablation E9).
	DisablePrefetch bool
}

// key forms the memo-cache identity of the cell. The effective thread
// count is used so an explicit Threads equal to the version default
// shares a cache entry with the default cell (e.g. the SMT ablation's
// all-threads run is fig5's algo cell).
func (c Cell) key(skipCheck bool) cellKey {
	return c.keyWith(machineSig(c.Machine), skipCheck)
}

// keyWith is key with the machine signature already derived, so a batch
// fingerprints each machine once (see Scheduler.keys).
func (c Cell) keyWith(sig string, skipCheck bool) cellKey {
	return cellKey{
		Bench:      c.Bench.Name(),
		Version:    c.Version.String(),
		Machine:    sig,
		N:          c.N,
		Threads:    c.threads(),
		NoPrefetch: c.DisablePrefetch,
		Skip:       skipCheck,
	}
}

// threads resolves the effective thread count: serial versions run one
// thread per the paper's gap definition, everything else uses every
// hardware thread.
func (c Cell) threads() int {
	if c.Threads != 0 {
		return c.Threads
	}
	if c.Version.Serial() {
		return 1
	}
	return c.Machine.HWThreads()
}

// measureCell prepares, runs and validates one cell. It is the single
// execution path behind Measure and the Scheduler. ctx bounds the work:
// cancellation is honored between the cell's phases (prepare, execute,
// validate), so a request deadline abandons a cell at the next phase
// boundary rather than simulating to completion.
func measureCell(ctx context.Context, c Cell, skipCheck bool) (*Measurement, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	inst, err := c.Bench.Prepare(c.Version, c.Machine, c.N)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	threads := c.threads()
	res, err := exec.Run(inst.Prog, inst.Arrays, c.Machine,
		exec.Options{Threads: threads, DisablePrefetch: c.DisablePrefetch})
	if err != nil {
		return nil, fmt.Errorf("%s/%s on %s: %w", c.Bench.Name(), c.Version, c.Machine.Name, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !skipCheck {
		if err := inst.Check(); err != nil {
			return nil, fmt.Errorf("%s/%s on %s: functional check failed: %w",
				c.Bench.Name(), c.Version, c.Machine.Name, err)
		}
	}
	return &Measurement{
		Bench: c.Bench.Name(), Version: c.Version, Machine: c.Machine.Name, N: c.N,
		Threads: threads, Res: res, Inst: retained(inst),
	}, nil
}

// retained is the part of a run's instance that outlives the run: the
// fields drivers read afterwards (Report, SourceStmts) and its identity.
// It is exactly what decodeMeasurement rebuilds from disk, so a memoized
// measurement has the same shape whichever tier served it, and the memo
// does not keep every cell's program and input arrays alive.
func retained(inst *kernels.Instance) *kernels.Instance {
	return &kernels.Instance{
		Bench: inst.Bench, Version: inst.Version, N: inst.N,
		Report: inst.Report, SourceStmts: inst.SourceStmts,
	}
}

// Scheduler fans measurement cells out across a bounded goroutine pool,
// serving repeated cells from a memo cache. Results are returned in input
// order regardless of completion order, so every figure renders
// byte-identically at any job count.
type Scheduler struct {
	jobs      int
	memo      *Memo
	skipCheck bool
	remote    Remote
}

// NewScheduler builds a scheduler with its own memo cache. jobs bounds
// the worker pool; 0 means GOMAXPROCS.
func NewScheduler(jobs int, memo *Memo, skipCheck bool) *Scheduler {
	if memo == nil {
		memo = NewMemo()
	}
	return &Scheduler{jobs: jobs, memo: memo, skipCheck: skipCheck}
}

// scheduler returns the configured scheduler for an experiment run,
// backed by the process-wide memo cache so cells shared between figures
// are measured exactly once per process.
func (c Config) scheduler() *Scheduler {
	s := NewScheduler(c.Jobs, sharedMemo, c.SkipCheck)
	s.remote = c.remote
	return s
}

// workers resolves the pool size.
func (s *Scheduler) workers(n int) int {
	w := s.jobs
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// keys derives the memo key of every cell in a batch before any cell
// runs, fingerprinting each distinct machine once: a figure batch shares
// a few *Machine values across dozens of cells, and on a warm memo the
// fingerprint would otherwise cost more than the hit it looks up.
func (s *Scheduler) keys(cells []Cell) []cellKey {
	keys := make([]cellKey, len(cells))
	var machines []*machine.Machine
	var sigs []string
	for i, c := range cells {
		j := 0
		for j < len(machines) && machines[j] != c.Machine {
			j++
		}
		if j == len(machines) {
			machines = append(machines, c.Machine)
			sigs = append(sigs, machineSig(c.Machine))
		}
		keys[i] = c.keyWith(sigs[j], s.skipCheck)
	}
	return keys
}

// measure runs one cell through the memo cache under ctx; key is the
// cell's memo key from keys. A cell the memo has to compute runs under
// pprof labels naming it, so a CPU profile of an experiment run
// attributes engine samples to the benchmark, version and machine being
// simulated rather than to an anonymous worker goroutine (`go tool pprof
// -tags`, or -focus on one label value); a memo hit sets no labels.
//
// With a remote executor configured (coordinator mode), a cache-missing
// cell is first offered to the worker pool; any remote failure other
// than the caller's own context expiring degrades gracefully to local
// execution, so a dead or drained fleet never fails a run it could have
// computed itself.
func (s *Scheduler) measure(ctx context.Context, c Cell, key cellKey) (*Measurement, error) {
	return s.memo.do(ctx, key, func() (m *Measurement, err error) {
		pprof.Do(ctx, pprof.Labels(
			"bench", c.Bench.Name(),
			"version", c.Version.String(),
			"machine", c.Machine.Name,
		), func(ctx context.Context) {
			m, err = s.compute(ctx, c, key)
		})
		return m, err
	})
}

// compute measures a memo-missing cell, remotely when a worker pool is
// configured and answers, locally otherwise.
func (s *Scheduler) compute(ctx context.Context, c Cell, key cellKey) (*Measurement, error) {
	if s.remote != nil {
		spec, err := c.spec(s.skipCheck)
		if err == nil {
			m, err := s.remote.MeasureCell(ctx, spec, key.String())
			if err == nil {
				return m, nil
			}
			if ctx.Err() != nil {
				// Report the cancellation, not the remote failure it
				// provoked, so the memo's never-cache-context-errors
				// rule classifies (and evicts) this entry correctly.
				return nil, fmt.Errorf("remote measure: %w", context.Cause(ctx))
			}
		}
		// Remote path failed while we are still live: fall back.
	}
	return measureCell(ctx, c, s.skipCheck)
}

// errsPool recycles Run's per-batch error slates. The experiment drivers
// call Run once per figure row and almost every batch finishes clean, so
// without the pool the all-nil slices are pure churn.
var errsPool sync.Pool

func getErrs(n int) *[]error {
	if v, ok := errsPool.Get().(*[]error); ok && cap(*v) >= n {
		s := (*v)[:n]
		clear(s)
		*v = s
		return v
	}
	s := make([]error, n)
	return &s
}

// Run measures every cell and returns results in cell order: results[i]
// belongs to cells[i]. The first failing cell (by input order) cancels
// the remaining work via ctx and is returned as the error; cells already
// in flight finish, cells not yet started are skipped.
func (s *Scheduler) Run(ctx context.Context, cells []Cell) ([]*Measurement, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]*Measurement, len(cells))
	if len(cells) == 0 {
		return results, nil
	}
	keys := s.keys(cells)
	errsp := getErrs(len(cells))
	defer errsPool.Put(errsp)
	errs := *errsp

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Serial fast path: with one worker there is nothing to fan out, so
	// the cells run inline on this goroutine — no channel handoff, no
	// worker pool — with exactly the pooled path's per-cell error
	// accounting (a failure cancels ctx; later cells are marked with the
	// cancellation cause and skipped).
	if s.workers(len(cells)) == 1 {
		for i := range cells {
			if ctx.Err() != nil {
				errs[i] = context.Cause(ctx)
				continue
			}
			m, err := s.measure(ctx, cells[i], keys[i])
			if err != nil {
				errs[i] = err
				cancel()
				continue
			}
			results[i] = m
		}
		return collect(ctx, results, errs)
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < s.workers(len(cells)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					errs[i] = context.Cause(ctx)
					continue
				}
				m, err := s.measure(ctx, cells[i], keys[i])
				if err != nil {
					errs[i] = err
					cancel()
					continue
				}
				results[i] = m
			}
		}()
	}
	feeding := true
	for i := 0; i < len(cells); i++ {
		if feeding {
			select {
			case idx <- i:
				continue
			case <-ctx.Done():
				feeding = false
			}
		}
		// Unfed cells were never handed to a worker; mark them with the
		// cancellation cause so the error scan below sees the whole batch
		// accounted for.
		errs[i] = context.Cause(ctx)
	}
	close(idx)
	wg.Wait()
	return collect(ctx, results, errs)
}

// collect applies the deterministic error-reporting policy to a finished
// batch: the lowest-index real failure wins over the cancellations it
// caused. Cancellation is classified with errors.Is, not pointer equality
// — cells return wrapped context errors (e.g. via the memo or a deadline
// inside measureCell), and those must not be misreported as real failures.
func collect(ctx context.Context, results []*Measurement, errs []error) ([]*Measurement, error) {
	var cancelled error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if isContextErr(err) && ctx.Err() != nil {
			if cancelled == nil {
				// Prefer the batch's cancellation cause (the parent's
				// deadline or cancel cause) so callers can classify the
				// failure — errors.Is(err, context.DeadlineExceeded)
				// works through the wrap.
				cause := context.Cause(ctx)
				if cause == nil {
					cause = err
				}
				cancelled = fmt.Errorf("cell %d cancelled: %w", i, cause)
			}
			continue
		}
		return nil, err
	}
	if cancelled != nil {
		return nil, cancelled
	}
	return results, nil
}
