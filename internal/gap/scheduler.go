package gap

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"

	"ninjagap/internal/cache"
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
func (c Cell) key() cellKey {
	return c.keyWith(machineSig(c.Machine))
}

// keyWith is key with the machine signature already derived, so a batch
// fingerprints each machine once (see Scheduler.keys).
func (c Cell) keyWith(sig string) cellKey {
	return cellKey{
		Bench:      c.Bench.Name(),
		Version:    c.Version.String(),
		Machine:    sig,
		N:          c.N,
		Threads:    c.threads(),
		NoPrefetch: c.DisablePrefetch,
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

// measureCell prepares, runs and validates one cell. It is the
// Scheduler's execution path for a cell measured alone. ctx bounds the
// work: cancellation is honored between the cell's phases (prepare,
// execute, validate), so a request deadline abandons a cell at the next
// phase boundary rather than simulating to completion.
func measureCell(ctx context.Context, c Cell) (*Measurement, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	inst, err := c.Bench.Prepare(c.Version, c.Machine, c.N)
	if err != nil {
		return nil, err
	}
	return runCell(ctx, c, inst)
}

// runCell is measureCell after Prepare: it runs and validates a prepared
// instance of c.
func runCell(ctx context.Context, c Cell, inst *kernels.Instance) (*Measurement, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	threads := c.threads()
	res, err := exec.Run(inst.Prog, inst.Arrays, c.Machine,
		exec.Options{Threads: threads, DisablePrefetch: c.DisablePrefetch})
	if err != nil {
		return nil, runErr(c, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := inst.Check(); err != nil {
		return nil, checkErr(c, err)
	}
	return measurement(c, threads, res, inst), nil
}

// runErr and checkErr name the cell an execution or validation error
// belongs to.
func runErr(c Cell, err error) error {
	return fmt.Errorf("%s/%s on %s: %w", c.Bench.Name(), c.Version, c.Machine.Name, err)
}

func checkErr(c Cell, err error) error {
	return fmt.Errorf("%s/%s on %s: functional check failed: %w",
		c.Bench.Name(), c.Version, c.Machine.Name, err)
}

// measurement assembles a validated cell's Measurement.
func measurement(c Cell, threads int, res *exec.Result, inst *kernels.Instance) *Measurement {
	return &Measurement{
		Bench: c.Bench.Name(), Version: c.Version, Machine: c.Machine.Name, N: c.N,
		Threads: threads, Res: res, Inst: retained(inst),
	}
}

// measureShared measures the cells of one group (see Scheduler.plan) with
// one Prepare, one exec.RunShared across their machines and one Check:
// ms[i] and errs[i] are what measureCell would return for cells[i]. The
// first cell's machine prepares the program; for a version other than
// Ninja, Prepare compiles the same program and inputs for every machine
// (TestPrepareMachineIndependent). When the program cannot be shared it
// measures cells[0] alone, leaves the rest unmeasured and reports shared
// false, so the caller measures them alone too.
func measureShared(ctx context.Context, cells []Cell) (ms []*Measurement, errs []error, shared bool) {
	ms = make([]*Measurement, len(cells))
	errs = make([]error, len(cells))
	each := func(f func(c Cell) error) ([]*Measurement, []error, bool) {
		for i, c := range cells {
			errs[i] = f(c)
		}
		return ms, errs, true
	}
	c0 := cells[0]
	if err := ctx.Err(); err != nil {
		return each(func(Cell) error { return err })
	}
	inst, err := c0.Bench.Prepare(c0.Version, c0.Machine, c0.N)
	if err != nil {
		return each(func(Cell) error { return err })
	}
	if err := ctx.Err(); err != nil {
		return each(func(Cell) error { return err })
	}
	machines := make([]*machine.Machine, len(cells))
	for i, c := range cells {
		machines[i] = c.Machine
	}
	res, err := exec.RunShared(inst.Prog, inst.Arrays, machines,
		exec.Options{Threads: 1, DisablePrefetch: c0.DisablePrefetch})
	if errors.Is(err, exec.ErrNotShared) {
		pprof.Do(ctx, pprof.Labels("machine", c0.Machine.Name), func(ctx context.Context) {
			ms[0], errs[0] = runCell(ctx, c0, inst)
		})
		return ms, errs, false
	}
	if err != nil {
		return each(func(c Cell) error { return runErr(c, err) })
	}
	if err := ctx.Err(); err != nil {
		return each(func(Cell) error { return err })
	}
	if err := inst.Check(); err != nil {
		return each(func(c Cell) error { return checkErr(c, err) })
	}
	for i, c := range cells {
		ms[i] = measurement(c, 1, res[i], inst)
	}
	return ms, errs, true
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
// serving repeated cells from a memo cache, and measures the serial cells
// of one kernel on several machines with one shared run (see plan).
// Results are returned in input order regardless of completion order, so
// every figure renders byte-identically at any job count.
type Scheduler struct {
	jobs int
	memo *Memo
}

// NewScheduler builds a scheduler with its own memo cache. jobs bounds
// the worker pool; 0 means GOMAXPROCS.
func NewScheduler(jobs int, memo *Memo) *Scheduler {
	if memo == nil {
		memo = NewMemo()
	}
	return &Scheduler{jobs: jobs, memo: memo}
}

// scheduler returns the configured scheduler for an experiment run,
// backed by the process-wide memo cache so cells shared between figures
// are measured exactly once per process.
func (c Config) scheduler() *Scheduler {
	return NewScheduler(c.Jobs, sharedMemo)
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
		keys[i] = c.keyWith(sigs[j])
	}
	return keys
}

// measure runs one cell through the memo cache under ctx; key is the
// cell's memo key from keys. A cell the memo has to compute runs under
// pprof labels naming it, so a CPU profile of an experiment run
// attributes engine samples to the benchmark, version and machine being
// simulated rather than to an anonymous worker goroutine (`go tool pprof
// -tags`, or -focus on one label value); a memo hit sets no labels.
func (s *Scheduler) measure(ctx context.Context, c Cell, key cellKey) (*Measurement, error) {
	return s.memo.do(ctx, key, func() (m *Measurement, err error) {
		pprof.Do(ctx, pprof.Labels(
			"bench", c.Bench.Name(),
			"version", c.Version.String(),
			"machine", c.Machine.Name,
		), func(ctx context.Context) {
			m, err = measureCell(ctx, c)
		})
		return m, err
	})
}

// measureGroup is measureShared under pprof labels naming the group's
// bench, version and every machine ("Core2Quad+NehalemI7+..."), so
// profiles keep attributing a shared run's samples.
func (s *Scheduler) measureGroup(ctx context.Context, cells []Cell) (ms []*Measurement, errs []error, shared bool) {
	names := make([]string, len(cells))
	for i, c := range cells {
		names[i] = c.Machine.Name
	}
	pprof.Do(ctx, pprof.Labels(
		"bench", cells[0].Bench.Name(),
		"version", cells[0].Version.String(),
		"machine", strings.Join(names, "+"),
	), func(ctx context.Context) {
		ms, errs, shared = measureShared(ctx, cells)
	})
	return ms, errs, shared
}

// work is one item of a batch: one cell, or a group of cells measured
// with one shared run (see plan).
type work struct {
	cell  int
	group []int // cell indices, in cell order; nil for a single cell
}

// plan turns a batch into work items in cell order. Serial cells of one
// compiled kernel on different machines share one run (exec.RunShared)
// and form one item, placed at its first member: cells whose keys agree
// on everything but the machine (bench, version, N, prefetch flag), on
// one thread, at a version other than Ninja (whose Prepare builds
// machine-specific code), whose machines have one cache front
// (exec.Front: the L1 and prefetcher every member's L1 hits are decided
// by), and that are neither in the memo nor on disk now.
// A group needs two members. Every other cell, including a repeat of a
// member's key, is an item of its own, so a batch never computes a cell it
// was not given and a lone cell runs as before. The front only steers
// grouping; it is no part of any cell's key.
func (s *Scheduler) plan(cells []Cell, keys []cellKey) []work {
	items := make([]work, 0, len(cells))
	var cand []int
	for i, c := range cells {
		if keys[i].Threads == 1 && c.Version != kernels.Ninja {
			cand = append(cand, i)
		}
	}
	var groups map[int][]int // first member -> members
	if len(cand) > 1 {
		taken := make([]bool, len(cells))
		fronts := make([]cache.Front, len(cells))
		for _, i := range cand {
			fronts[i] = exec.Front(cells[i].Machine, exec.Options{Threads: 1, DisablePrefetch: cells[i].DisablePrefetch})
		}
		for a, i := range cand {
			if taken[i] {
				continue
			}
			members := []int{i}
			for _, j := range cand[a+1:] {
				if taken[j] || !sameProgram(keys[i], keys[j]) || fronts[j] != fronts[i] {
					continue
				}
				taken[j] = true
				if !hasMachine(keys, members, keys[j].Machine) {
					members = append(members, j)
				}
			}
			if len(members) < 2 {
				continue
			}
			uncached := members[:0]
			for _, j := range members {
				if !s.memo.cached(keys[j]) {
					uncached = append(uncached, j)
				}
			}
			if len(uncached) < 2 {
				continue
			}
			if groups == nil {
				groups = map[int][]int{}
			}
			groups[uncached[0]] = uncached
			for _, j := range uncached[1:] {
				groups[j] = nil // placed in its group's item
			}
		}
	}
	for i := range cells {
		g, ok := groups[i]
		switch {
		case !ok:
			items = append(items, work{cell: i})
		case g != nil:
			items = append(items, work{cell: i, group: g})
		}
	}
	return items
}

// sameProgram reports whether two serial cells' keys agree on everything
// but the machine.
func sameProgram(a, b cellKey) bool {
	return a.Bench == b.Bench && a.Version == b.Version && a.N == b.N &&
		a.Threads == b.Threads && a.NoPrefetch == b.NoPrefetch
}

// hasMachine reports whether one of the cells at idx has machine signature sig.
func hasMachine(keys []cellKey, idx []int, sig string) bool {
	for _, i := range idx {
		if keys[i].Machine == sig {
			return true
		}
	}
	return false
}

// batch is one Run in progress: its cells and keys, their result and
// error slates, and the batch context with its cancel.
type batch struct {
	s       *Scheduler
	ctx     context.Context
	cancel  context.CancelFunc
	cells   []Cell
	keys    []cellKey
	results []*Measurement
	errs    []error
}

// run measures one work item.
func (b *batch) run(it work) {
	if it.group != nil {
		b.runGroup(it.group)
		return
	}
	b.measureOne(it.cell)
}

// measureOne measures cell i through the memo, or marks it with the
// cancellation cause once the batch has failed.
func (b *batch) measureOne(i int) {
	if b.ctx.Err() != nil {
		b.errs[i] = context.Cause(b.ctx)
		return
	}
	m, err := b.s.measure(b.ctx, b.cells[i], b.keys[i])
	b.settle(i, m, err)
}

// skip marks an item's cells, never handed to a worker, with the
// cancellation cause.
func (b *batch) skip(it work) {
	if it.group == nil {
		b.errs[it.cell] = context.Cause(b.ctx)
		return
	}
	for _, i := range it.group {
		b.errs[i] = context.Cause(b.ctx)
	}
}

// settle records cell i's outcome; a failure cancels the rest of the
// batch.
func (b *batch) settle(i int, m *Measurement, err error) {
	if err != nil {
		b.errs[i] = err
		b.cancel()
		return
	}
	b.results[i] = m
}

// runGroup measures a group's members through the memo in cell order,
// each looked up (and on a miss stored, on disk too) exactly as measure
// would, so memo misses, persisted entries and error texts are those of
// cells measured alone. The first member the memo has to compute measures
// it and every later member with one shared run; the later members'
// lookups take their results from it. If the program cannot be shared,
// that member is measured alone and so is every later one.
func (b *batch) runGroup(members []int) {
	var (
		ms     []*Measurement
		errs   []error
		from   = -1 // position in members of the first computed member
		shared bool
	)
	for j, i := range members {
		if from >= 0 && !shared {
			b.measureOne(i)
			continue
		}
		if b.ctx.Err() != nil {
			b.errs[i] = context.Cause(b.ctx)
			continue
		}
		m, err := b.s.memo.do(b.ctx, b.keys[i], func() (*Measurement, error) {
			if from < 0 {
				from = j
				cells := make([]Cell, 0, len(members)-j)
				for _, k := range members[j:] {
					cells = append(cells, b.cells[k])
				}
				ms, errs, shared = b.s.measureGroup(b.ctx, cells)
			}
			return ms[j-from], errs[j-from]
		})
		b.settle(i, m, err)
	}
}

// Run measures every cell and returns results in cell order: results[i]
// belongs to cells[i]. It is the one way a cell is measured (Measure and
// RunCells call it), and every cell it computes passes its instance's
// Check before it is returned or cached. Serial cells of one kernel on
// several machines share one simulated run (see plan). The first failing
// cell (by input order) cancels the remaining work via ctx and is
// returned as the error; cells already in flight finish, cells not yet
// started are skipped.
func (s *Scheduler) Run(ctx context.Context, cells []Cell) ([]*Measurement, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]*Measurement, len(cells))
	if len(cells) == 0 {
		return results, nil
	}
	keys := s.keys(cells)
	items := s.plan(cells, keys)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	b := &batch{s: s, ctx: ctx, cancel: cancel, cells: cells, keys: keys,
		results: results, errs: make([]error, len(cells))}

	feed := make(chan work)
	var wg sync.WaitGroup
	for w := 0; w < s.workers(len(items)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range feed {
				b.run(it)
			}
		}()
	}
	feeding := true
	for _, it := range items {
		if feeding {
			select {
			case feed <- it:
				continue
			case <-ctx.Done():
				feeding = false
			}
		}
		// Unfed items were never handed to a worker; mark their cells
		// with the cancellation cause so the error scan below sees the
		// whole batch accounted for.
		b.skip(it)
	}
	close(feed)
	wg.Wait()
	return collect(ctx, results, b.errs)
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
