package exec

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"unsafe"

	"ninjagap/internal/cache"
	"ninjagap/internal/machine"
	"ninjagap/internal/vm"
)

// barrierCycles is the fork-join overhead charged to every parallel-loop
// segment (thread wakeup plus barrier), preventing unrealistic scaling of
// tiny loops.
const barrierCycles = 3000

type engine struct {
	prog      *vm.Prog
	m         *machine.Machine
	arrays    []*vm.Array
	opt       Options
	W         int
	wMask     uint32 // (1<<W)-1: the full active mask
	lineBytes int
	lineMask  uint64 // ^(lineBytes-1): Validate admits only power-of-two lines
	bp        *boundProg
	rows      []chargeRow // charge-row table; bInstr rows index it
	threads   []*threadCtx
	cores     []coreAgg // flushSegment's per-core scratch, indexed by core
	pool      *sync.Pool
	hc        cache.Config // hierarchy config of every thread, and of every context in pool
	coresUsed int
	res       Result

	// Per-run cost-model constants for the few charges whose lane count is
	// only known dynamically (gather/scatter element counts).
	l1Latency           float64
	loadPort, storePort machine.Port
	gatherC, scatterC   machine.Cost
	hwGather, hwScatter bool

	reduceInit []float64 // scratch for parallel-reduction init snapshots
}

// threadPools pools thread contexts (register file, mask stack, private
// cache hierarchy) per distinct hierarchy, keyed by cache.Key, so a
// long-lived process stops paying allocation and GC for every measured
// cell. Everything else in a context is sized or reset per run, so machine
// variants whose caches match draw from their base machine's pool: Fig 7's
// gather/scatter+FMA Westmere, and the ablation's core-count variants at
// the thread counts other cells also run.
var threadPools sync.Map // cache.Key -> *sync.Pool

// Run executes prog on machine m with the named arrays bound. It returns
// the functional result in the arrays (mutated in place) and the simulated
// performance result.
func Run(prog *vm.Prog, arrays map[string]*vm.Array, m *machine.Machine, opt Options) (*Result, error) {
	e, err := newEngine(prog, arrays, m, opt)
	if err != nil {
		return nil, err
	}
	defer e.releaseThreads()

	if err := e.runTop(); err != nil {
		return nil, err
	}

	e.finish()
	r := e.res
	return &r, nil
}

// newEngine validates the inputs and builds a ready-to-run engine: arrays
// laid out, program bound, thread contexts drawn from the pool. The caller
// owns releaseThreads.
func newEngine(prog *vm.Prog, arrays map[string]*vm.Array, m *machine.Machine, opt Options) (*engine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	e := &engine{prog: prog, m: m, opt: opt, lineBytes: m.Caches[0].LineBytes}
	e.lineMask = ^uint64(e.lineBytes - 1)
	e.l1Latency = m.Caches[0].Latency
	e.loadPort = m.Cost(machine.OpLoad).Port
	e.storePort = m.Cost(machine.OpStore).Port
	e.gatherC = m.Cost(machine.OpGatherElem)
	e.scatterC = m.Cost(machine.OpScatterElem)
	e.hwGather = m.Feat.HWGather
	e.hwScatter = m.Feat.HWScatter
	eb := prog.ElemBytes
	if eb == 0 {
		eb = 4
	}
	e.W = m.Lanes(eb)
	e.wMask = (1 << uint(e.W)) - 1

	// Bind arrays in program order and lay them out in a sparse virtual
	// address space so distinct arrays never share cache lines.
	base := uint64(1 << 20)
	e.arrays = make([]*vm.Array, 0, len(prog.Arrays))
	for _, ref := range prog.Arrays {
		a, ok := arrays[ref.Name]
		if !ok {
			return nil, fmt.Errorf("exec: prog %s: array %q not bound", prog.Name, ref.Name)
		}
		if a.ElemBytes == 0 {
			a.ElemBytes = ref.ElemBytes
		}
		a.Base = base
		sz := uint64(len(a.Data)*a.ElemBytes) + 4096
		base += (sz + 4095) / 4096 * 4096
		e.arrays = append(e.arrays, a)
	}

	// Link the program: flatten the structured body, then bind machine
	// costs and array references onto the flat instruction stream.
	e.bp = e.bind(prog.Flatten())

	nt, cores, hc := layout(m, opt)
	e.coresUsed = cores
	e.cores = make([]coreAgg, e.coresUsed)
	e.hc = hc
	poolI, _ := threadPools.LoadOrStore(cache.Key(m, e.hc), &sync.Pool{})
	e.pool = poolI.(*sync.Pool)
	e.threads = make([]*threadCtx, 0, nt)
	for t := 0; t < nt; t++ {
		pooled, _ := e.pool.Get().(*threadCtx)
		e.threads = append(e.threads, e.readyThread(pooled, t))
	}
	e.res.Threads = nt
	return e, nil
}

// layout resolves a run's thread count (opt.Threads, or one per hardware
// thread when 0), how many cores those threads occupy, and the cache
// configuration of every thread: shared levels split among those cores.
func layout(m *machine.Machine, opt Options) (threads, cores int, hc cache.Config) {
	threads = opt.Threads
	if threads <= 0 {
		threads = m.HWThreads()
	}
	cores = min(threads, m.Cores)
	return threads, cores, cache.Config{ShareFactor: cores, Prefetch: m.Feat.HWPrefetch && !opt.DisablePrefetch}
}

// lineOf rounds an address down to its cache-line base.
func (e *engine) lineOf(addr uint64) uint64 { return addr & e.lineMask }

// readyThread resets a pooled context t, or builds one when t is nil, to
// the fresh-context state for thread id: zero registers, full mask, cold
// caches.
func (e *engine) readyThread(t *threadCtx, id int) *threadCtx {
	if t == nil {
		t = &threadCtx{hier: cache.New(e.m, e.hc)}
	}
	t.e = e
	t.id = id
	n := e.prog.NumRegs * vm.MaxLanes
	if cap(t.regs) < n {
		t.regs = make([]float64, n)
	} else {
		t.regs = t.regs[:n]
		clear(t.regs)
	}
	t.regBase = unsafe.Pointer(&t.regs[0])
	t.mask = t.fullMask()
	t.act = e.W
	t.maskStack = t.maskStack[:0]
	t.cost.reset()
	t.hier.Reset()
	t.lastDRAM = 0
	t.err = nil
	t.whileIter = 0
	return t
}

// releaseThreads returns the contexts to the pool. The engine pointer is
// cleared so a pooled context cannot pin a finished run's memory.
func (e *engine) releaseThreads() {
	for _, t := range e.threads {
		t.e = nil
		e.pool.Put(t)
	}
	e.threads = nil
}

// runTop walks the top-level body: sequential stretches execute on thread
// 0; each parallel loop is forked across all threads. Every stretch and
// every parallel loop is a "segment" whose time is the max of its core
// time and its bandwidth time.
func (e *engine) runTop() error {
	main := e.threads[0]
	top := e.bp.top
	for i := top.Start; i < top.End; i++ {
		bi := &e.bp.instrs[i]
		if bi.op != vm.OpParLoop || len(e.threads) == 1 {
			bi.fn(main, bi)
			if main.err != nil {
				return main.err
			}
			continue
		}
		// Close the current sequential segment before forking.
		e.flushSegment(e.threads[:1], false)
		if err := e.parLoop(bi); err != nil {
			return err
		}
	}
	e.flushSegment(e.threads[:1], false)
	return nil
}

// parLoop forks one parallel loop across all threads and joins it as a
// segment.
func (e *engine) parLoop(bi *bInstr) error {
	main := e.threads[0]
	n := main.tripCount(bi)
	T := int64(len(e.threads))

	// Seed every worker with the main thread's live register state.
	for _, t := range e.threads[1:] {
		copy(t.regs, main.regs)
	}
	need := len(bi.reduceRegs) * vm.MaxLanes
	if cap(e.reduceInit) < need {
		e.reduceInit = make([]float64, need)
	}
	init := e.reduceInit[:need]
	for ri, off := range bi.reduceRegs {
		copy(init[ri*vm.MaxLanes:(ri+1)*vm.MaxLanes], main.reg(off)[:])
	}

	// Worker bodies are independent (disjoint iteration ranges, private
	// register files and hierarchies), so on a single-CPU process they run
	// inline in thread order — same results, no fork/join overhead.
	if runtime.GOMAXPROCS(0) == 1 {
		for ti := int64(0); ti < T; ti++ {
			e.runWorker(bi, ti, n, T)
		}
	} else {
		var wg sync.WaitGroup
		for ti := int64(0); ti < T; ti++ {
			wg.Add(1)
			go func(ti int64) {
				defer wg.Done()
				e.runWorker(bi, ti, n, T)
			}(ti)
		}
		wg.Wait()
	}
	for _, t := range e.threads {
		if t.err != nil {
			return t.err
		}
	}

	// Cross-thread reduction combine (deterministic thread order).
	for ri, off := range bi.reduceRegs {
		acc := main.reg(off)
		iv := init[ri*vm.MaxLanes : (ri+1)*vm.MaxLanes]
		for l := 0; l < vm.MaxLanes; l++ {
			switch bi.reduceOp {
			case vm.OpAdd:
				sum := iv[l]
				for _, t := range e.threads {
					sum += t.reg(off)[l] - iv[l]
				}
				acc[l] = sum
			case vm.OpMin:
				v := iv[l]
				for _, t := range e.threads {
					v = math.Min(v, t.reg(off)[l])
				}
				acc[l] = v
			case vm.OpMax:
				v := iv[l]
				for _, t := range e.threads {
					v = math.Max(v, t.reg(off)[l])
				}
				acc[l] = v
			}
		}
	}

	e.flushSegment(e.threads, true)
	return nil
}

// runWorker executes thread ti's share of a parallel loop over n
// iterations split across T threads.
func (e *engine) runWorker(bi *bInstr, ti, n, T int64) {
	t := e.threads[ti]
	if bi.chunk > 0 {
		// Round-robin chunks: an idealized dynamic schedule that balances
		// irregular iteration costs.
		ck := int64(bi.chunk)
		for c := ti * ck; c < n; c += T * ck {
			hi := c + ck
			if hi > n {
				hi = n
			}
			t.loopRange(bi, bi.lo+c, bi.lo+hi)
			if t.err != nil {
				return
			}
		}
		return
	}
	per := (n + T - 1) / T
	lo := ti * per
	hi := lo + per
	if hi > n {
		hi = n
	}
	if lo >= hi {
		return
	}
	t.loopRange(bi, bi.lo+lo, bi.lo+hi)
}

// coreAgg is one core's share of a segment: its threads' summed compute
// and stall cycles and how many threads it ran.
type coreAgg struct {
	compute float64
	stall   float64
	k       int
}

// flushSegment converts the threads' accumulated segment costs into elapsed
// cycles, applies the SMT-overlap and bandwidth models, resets the
// accumulators, and folds statistics into the result.
func (e *engine) flushSegment(threads []*threadCtx, parallel bool) {
	// Per-core grouping: thread t runs on core t % coresUsed.
	cores := e.cores
	clear(cores)
	var segBytes uint64
	empty := true
	for _, t := range threads {
		t.cost.fold(e.rows)
		c := t.cost.computeCycles(e.m.IssueWidth)
		if c > 0 || t.cost.stall > 0 {
			empty = false
		}
		ca := &cores[t.id%e.coresUsed]
		ca.compute += c
		ca.stall += t.cost.stall
		ca.k++
		segBytes += t.hier.DRAMBytes() - t.lastDRAM
		t.lastDRAM = t.hier.DRAMBytes()
		t.cost.addInto(&e.res)
	}
	if empty && segBytes == 0 {
		for _, t := range threads {
			t.cost.reset()
		}
		return
	}

	// SMT model: a core's threads share issue ports; stalls overlap with
	// the sibling threads' compute. T_core = max(C, (C+S)/k). Cores are
	// walked in index order, so of two cores that tie on T_core the lower
	// one is critical and decides ComputeCycles.
	var coreMax, critC float64
	for i := range cores {
		ca := &cores[i]
		if ca.k == 0 {
			continue
		}
		tc := ca.compute
		if alt := (ca.compute + ca.stall) / float64(ca.k); alt > tc {
			tc = alt
		}
		if tc > coreMax {
			coreMax = tc
			critC = ca.compute
		}
	}
	if parallel {
		coreMax += barrierCycles
	}

	// Bandwidth roofline: the segment cannot finish faster than its DRAM
	// traffic at peak bandwidth.
	bytesPerCycle := e.m.Mem.BandwidthGBps / e.m.FreqGHz
	bwCycles := float64(segBytes) / bytesPerCycle
	segTime := coreMax
	if bwCycles > segTime {
		segTime = bwCycles
	}

	e.res.Cycles += segTime
	e.res.ComputeCycles += critC
	if coreMax > critC {
		e.res.StallCycles += coreMax - critC
	}
	if segTime > coreMax {
		e.res.BWExtraCycles += segTime - coreMax
	}
	e.res.DRAMBytes += segBytes

	for _, t := range threads {
		t.cost.reset()
	}
}

// finish converts cycles to seconds and classifies the binding constraint.
func (e *engine) finish() {
	r := &e.res
	r.Seconds = r.Cycles / (e.m.FreqGHz * 1e9)
	if r.Seconds > 0 {
		r.GFlops = float64(r.Flops) / r.Seconds / 1e9
	}
	switch {
	case r.BWExtraCycles > 0.3*r.Cycles:
		r.BoundBy = "bandwidth"
	case r.StallCycles > 0.3*r.Cycles:
		r.BoundBy = "latency"
	default:
		r.BoundBy = "compute"
	}
	// Aggregate cache stats across threads.
	if len(e.threads) > 0 {
		nl := len(e.threads[0].hier.Stats())
		r.CacheStats = make([]cache.LevelStats, nl)
		for _, t := range e.threads {
			for i, s := range t.hier.Stats() {
				r.CacheStats[i].Accesses += s.Accesses
				r.CacheStats[i].Hits += s.Hits
				r.CacheStats[i].Misses += s.Misses
				r.CacheStats[i].PrefetchHits += s.PrefetchHits
				r.CacheStats[i].Prefetches += s.Prefetches
				r.CacheStats[i].Writebacks += s.Writebacks
			}
		}
	}
}
