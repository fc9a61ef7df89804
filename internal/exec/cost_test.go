package exec

import (
	"testing"
	"testing/quick"

	"ninjagap/internal/machine"
	"ninjagap/internal/vm"
)

// buildSaxpyScalar builds a naive scalar y[i] = a*x[i] + y[i] loop.
func buildSaxpyScalar(n int64) *vm.Prog {
	b := vm.NewBuilder("saxpy-scalar")
	xa := b.Array("x", 4)
	ya := b.Array("y", 4)
	a := b.Const(3)
	i := b.Loop(0, n)
	x := b.LoadScalar(xa, i)
	y := b.LoadScalar(ya, i)
	m := b.Scalar2(vm.OpMul, a, x)
	s := b.Scalar2(vm.OpAdd, m, y)
	b.StoreScalar(ya, s, i)
	b.End()
	return b.MustBuild()
}

// buildSaxpyVec builds the vectorized version.
func buildSaxpyVec(n int64) *vm.Prog {
	b := vm.NewBuilder("saxpy-vec")
	xa := b.Array("x", 4)
	ya := b.Array("y", 4)
	a := b.Const(3)
	i := b.VecLoop(0, n)
	x := b.Load(xa, i, 1)
	y := b.Load(ya, i, 1)
	b.Store(ya, b.FMA(a, x, y), i, 1)
	b.End()
	return b.MustBuild()
}

// buildSaxpyPar builds the threaded vectorized version.
func buildSaxpyPar(n int64) *vm.Prog {
	b := vm.NewBuilder("saxpy-par")
	xa := b.Array("x", 4)
	ya := b.Array("y", 4)
	a := b.Const(3)
	i := b.ParVecLoop(0, n)
	x := b.Load(xa, i, 1)
	y := b.Load(ya, i, 1)
	b.Store(ya, b.FMA(a, x, y), i, 1)
	b.End()
	return b.MustBuild()
}

// buildComputeHeavy builds an in-register compute kernel (no memory
// pressure): y[i] = polynomial of x[i % block], reading one cached block.
// Each iteration writes only its own y[i], so the threads of a parallel
// version never write the same element.
func buildComputeHeavy(n int64, vec, par bool) *vm.Prog {
	b := vm.NewBuilder("compute")
	xa := b.Array("x", 4)
	ya := b.Array("y", 4)
	const block = 1024 // fits in L1: all passes after the first hit
	var i int
	switch {
	case par && vec:
		i = b.ParVecLoop(0, n)
	case vec:
		i = b.VecLoop(0, n)
	case par:
		i = b.ParLoop(0, n)
	default:
		i = b.Loop(0, n)
	}
	scalar := !vec
	mod := func(r int) int { // idx = i % block via i - floor(i/block)*block
		inv := b.Const(1.0 / block)
		q := b.Reg()
		b.Emit(vm.Instr{Op: vm.OpMul, Dst: q, A: r, B: inv, Scalar: scalar})
		fq := b.Reg()
		b.Emit(vm.Instr{Op: vm.OpFloor, Dst: fq, A: q, Scalar: scalar})
		blk := b.Const(block)
		p := b.Reg()
		b.Emit(vm.Instr{Op: vm.OpMul, Dst: p, A: fq, B: blk, Scalar: scalar})
		d := b.Reg()
		b.Emit(vm.Instr{Op: vm.OpSub, Dst: d, A: r, B: p, Scalar: scalar})
		return d
	}
	idx := mod(i)
	var x int
	if vec {
		x = b.Gather(xa, idx)
	} else {
		x = b.Reg()
		b.Emit(vm.Instr{Op: vm.OpLoad, Dst: x, A: idx, Arr: xa, Scalar: true})
	}
	acc := x
	for k := 0; k < 16; k++ {
		nr := b.Reg()
		b.Emit(vm.Instr{Op: vm.OpFMA, Dst: nr, A: acc, B: x, C: acc, Scalar: scalar})
		acc = nr
	}
	if vec {
		b.Scatter(ya, acc, i)
	} else {
		b.Emit(vm.Instr{Op: vm.OpStore, A: acc, B: i, Arr: ya, Scalar: true})
	}
	b.End()
	return b.MustBuild()
}

func saxpyArrays(n int) map[string]*vm.Array {
	arrays := newArrays(n, "x", "y")
	for i := 0; i < n; i++ {
		arrays["x"].Data[i] = float64(i%100) / 7
		arrays["y"].Data[i] = float64(i%13) / 3
	}
	return arrays
}

func mustRun(t *testing.T, p *vm.Prog, arrays map[string]*vm.Array, m *machine.Machine, opt Options) *Result {
	t.Helper()
	r, err := Run(p, arrays, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestVectorizationSpeedsUpCompute(t *testing.T) {
	const n = 1 << 14
	m := machine.WestmereX980()
	rs := mustRun(t, buildComputeHeavy(n, false, false), saxpyArrays(n), m, Options{Threads: 1})
	rv := mustRun(t, buildComputeHeavy(n, true, false), saxpyArrays(n), m, Options{Threads: 1})
	sp := rv.Speedup(rs)
	// 4-wide SIMD on a compute-bound kernel: expect near 4x (gather
	// overhead eats a little).
	if sp < 2.0 || sp > 4.5 {
		t.Errorf("SIMD speedup = %.2fx, want ~2-4.5x (scalar %v, vector %v)", sp, rs, rv)
	}
}

func TestThreadingSpeedsUpCompute(t *testing.T) {
	const n = 1 << 15
	m := machine.WestmereX980()
	r1 := mustRun(t, buildComputeHeavy(n, true, false), saxpyArrays(n), m, Options{Threads: 1})
	r6 := mustRun(t, buildComputeHeavy(n, true, true), saxpyArrays(n), m, Options{Threads: 6})
	sp := r6.Speedup(r1)
	if sp < 3.5 || sp > 6.5 {
		t.Errorf("6-core speedup = %.2fx, want ~4-6x (1T %v, 6T %v)", sp, r1, r6)
	}
}

func TestBandwidthBoundDoesNotScale(t *testing.T) {
	// Streaming saxpy on large arrays is bandwidth bound: going from 3 to
	// 6 cores should give little additional speedup.
	const n = 1 << 21
	m := machine.WestmereX980()
	r3 := mustRun(t, buildSaxpyPar(n), saxpyArrays(n), m, Options{Threads: 3})
	r6 := mustRun(t, buildSaxpyPar(n), saxpyArrays(n), m, Options{Threads: 6})
	sp := r6.Speedup(r3)
	if sp > 1.4 {
		t.Errorf("bandwidth-bound kernel scaled %.2fx from 3 to 6 cores, want <1.4x", sp)
	}
	if r6.BoundBy != "bandwidth" {
		t.Errorf("large streaming saxpy bound by %q, want bandwidth", r6.BoundBy)
	}
}

func TestSMTHelpsLatencyBound(t *testing.T) {
	// A gather-heavy dependent-access kernel stalls on memory; SMT
	// should overlap some of the stall. The result goes to a write-only
	// array, so no thread writes an element another thread reads.
	const n = 1 << 16
	b := vm.NewBuilder("chase")
	xa := b.Array("x", 4)
	ya := b.Array("y", 4)
	i := b.ParLoop(0, n)
	v := b.LoadScalar(xa, i)
	// Dependent load: index depends on loaded value.
	v2 := b.Reg()
	b.Emit(vm.Instr{Op: vm.OpLoad, Dst: v2, A: v, Arr: xa, Scalar: true, Carried: true})
	b.StoreScalar(ya, v2, i)
	b.End()
	p := b.MustBuild()

	mk := func() map[string]*vm.Array {
		arrays := newArrays(n, "x", "y")
		for j := 0; j < n; j++ {
			arrays["x"].Data[j] = float64((j * 104729) % n) // scattered targets
		}
		return arrays
	}
	m := machine.WestmereX980()
	r6 := mustRun(t, p, mk(), m, Options{Threads: 6})
	r12 := mustRun(t, p, mk(), m, Options{Threads: 12})
	if sp := r12.Speedup(r6); sp < 1.1 {
		t.Errorf("SMT speedup on latency-bound kernel = %.2fx, want >1.1x (6T %v, 12T %v)", sp, r6, r12)
	}
}

func TestHWGatherCheaperThanEmulated(t *testing.T) {
	// A gather-dominated permutation kernel: out[i] = x[perm(i)].
	const n = 1 << 14
	b := vm.NewBuilder("perm")
	xa := b.Array("x", 4)
	ya := b.Array("y", 4)
	i := b.VecLoop(0, n)
	// Block-reversed permutation keeps indices in a small window for
	// cache hits, so the load-port gather cost dominates.
	inv := b.Const(1.0 / 64)
	q := b.Op2(vm.OpMul, i, inv)
	fq := b.Op1(vm.OpFloor, q)
	blk := b.Const(64)
	p0 := b.Op2(vm.OpMul, fq, blk)
	rem := b.Op2(vm.OpSub, i, p0)
	rev := b.Op2(vm.OpSub, b.Const(63), rem)
	pidx := b.Op2(vm.OpAdd, p0, rev)
	v := b.Gather(xa, pidx)
	b.Store(ya, v, i, 1)
	b.End()
	p := b.MustBuild()
	base := machine.WestmereX980()
	f := base.Feat
	f.HWGather = true
	f.HWScatter = true
	hw := base.WithFeatures(f)
	r1 := mustRun(t, p, saxpyArrays(n), base, Options{Threads: 1})
	r2 := mustRun(t, p, saxpyArrays(n), hw, Options{Threads: 1})
	if sp := r2.Speedup(r1); sp < 1.05 {
		t.Errorf("hardware gather speedup = %.2fx, want >1.05x", sp)
	}
}

func TestCarriedReductionSlower(t *testing.T) {
	const n = 1 << 14
	build := func(carried bool, unroll int) *vm.Prog {
		b := vm.NewBuilder("red")
		xa := b.Array("x", 4)
		acc := b.Const(0)
		i := b.VecLoop(0, n)
		if unroll > 1 {
			b.SetUnroll(unroll)
		}
		v := b.Load(xa, i, 1)
		b.Emit(vm.Instr{Op: vm.OpAdd, Dst: acc, A: acc, B: v, Carried: carried, Unroll: unroll})
		b.End()
		out := b.Array("out", 4)
		b.StoreScalar(out, b.Op1(vm.OpHAdd, acc), b.Const(0))
		return b.MustBuild()
	}
	mk := func() map[string]*vm.Array {
		a := newArrays(n, "x")
		a["out"] = vm.NewArray("out", 4, 1)
		return a
	}
	m := machine.WestmereX980()
	rc := mustRun(t, build(true, 1), mk(), m, Options{Threads: 1})
	ru := mustRun(t, build(true, 4), mk(), m, Options{Threads: 1})
	rn := mustRun(t, build(false, 1), mk(), m, Options{Threads: 1})
	if rc.Cycles <= ru.Cycles {
		t.Errorf("carried reduction (%.0f cyc) should be slower than 4x-unrolled (%.0f cyc)", rc.Cycles, ru.Cycles)
	}
	if ru.Cycles < rn.Cycles {
		t.Errorf("unrolled carried (%.0f cyc) should not beat uncarried (%.0f cyc)", ru.Cycles, rn.Cycles)
	}
}

func TestPrefetchReducesTime(t *testing.T) {
	const n = 1 << 20
	m := machine.WestmereX980()
	p := buildSaxpyVec(n)
	ron := mustRun(t, p, saxpyArrays(n), m, Options{Threads: 1})
	roff := mustRun(t, p, saxpyArrays(n), m, Options{Threads: 1, DisablePrefetch: true})
	if ron.Cycles >= roff.Cycles {
		t.Errorf("prefetch on (%.0f cyc) should beat prefetch off (%.0f cyc)", ron.Cycles, roff.Cycles)
	}
}

func TestScalarLibmMoreExpensiveThanVectorPoly(t *testing.T) {
	const n = 1 << 12
	build := func(vec bool) *vm.Prog {
		b := vm.NewBuilder("expk")
		xa := b.Array("x", 4)
		ya := b.Array("y", 4)
		if vec {
			i := b.VecLoop(0, n)
			v := b.Load(xa, i, 1)
			b.Store(ya, b.Op1(vm.OpExp, v), i, 1)
			b.End()
		} else {
			i := b.Loop(0, n)
			v := b.LoadScalar(xa, i)
			e := b.Scalar1(vm.OpExp, v)
			b.StoreScalar(ya, e, i)
			b.End()
		}
		return b.MustBuild()
	}
	m := machine.WestmereX980()
	rs := mustRun(t, build(false), saxpyArrays(n), m, Options{Threads: 1})
	rv := mustRun(t, build(true), saxpyArrays(n), m, Options{Threads: 1})
	// libm scalar exp ~45 cyc/elem vs vector poly ~2 cyc/elem: expect a
	// large ratio, well beyond plain SIMD width.
	if sp := rv.Speedup(rs); sp < 8 {
		t.Errorf("vector math speedup = %.2fx, want >8x", sp)
	}
}

func TestResultAccountingInvariants(t *testing.T) {
	const n = 1 << 16
	r := mustRun(t, buildSaxpyPar(n), saxpyArrays(n), machine.WestmereX980(), Options{Threads: 6})
	if r.Cycles <= 0 || r.Seconds <= 0 {
		t.Fatalf("non-positive time: %+v", r)
	}
	sum := r.ComputeCycles + r.StallCycles + r.BWExtraCycles
	if sum > r.Cycles*1.001 {
		t.Errorf("breakdown (%.0f) exceeds total (%.0f)", sum, r.Cycles)
	}
	if r.Flops == 0 || r.DynInstrs == 0 {
		t.Error("no flops or instructions recorded")
	}
	if r.DRAMBytes == 0 {
		t.Error("streaming kernel recorded no DRAM traffic")
	}
	if len(r.CacheStats) != 3 {
		t.Errorf("cache stats levels = %d, want 3", len(r.CacheStats))
	}
	var total uint64
	for _, c := range r.ClassCounts {
		total += c
	}
	if total == 0 {
		t.Error("no class counts recorded")
	}
	// Every charge issues one instruction of one class, and the engine
	// derives DynInstrs from the class counts it folds at each flush.
	if r.DynInstrs != total {
		t.Errorf("DynInstrs = %d, want the sum of ClassCounts, %d", r.DynInstrs, total)
	}
}

func TestMICWiderSIMDFasterThanWestmereForCompute(t *testing.T) {
	const n = 1 << 15
	pv := buildComputeHeavy(n, true, true)
	rw := mustRun(t, pv, saxpyArrays(n), machine.WestmereX980(), Options{})
	rk := mustRun(t, pv, saxpyArrays(n), machine.KnightsFerry(), Options{})
	if sp := rk.Speedup(rw); sp < 1.5 {
		t.Errorf("MIC speedup over Westmere on compute kernel = %.2fx, want >1.5x", sp)
	}
}

// Property: simulated time is deterministic for single-threaded runs and
// monotone in problem size.
func TestTimeMonotoneInSize(t *testing.T) {
	f := func(seed uint8) bool {
		n1 := int64(1000 + int(seed)*10)
		n2 := n1 * 2
		r1, err1 := Run(buildSaxpyVec(n1), saxpyArrays(int(n1)), machine.WestmereX980(), Options{Threads: 1})
		r2, err2 := Run(buildSaxpyVec(n2), saxpyArrays(int(n2)), machine.WestmereX980(), Options{Threads: 1})
		if err1 != nil || err2 != nil {
			return false
		}
		return r2.Cycles > r1.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: vectorized and scalar saxpy produce identical functional
// results (no reassociation in this kernel).
func TestScalarVectorEquivalenceProperty(t *testing.T) {
	f := func(seed uint8) bool {
		n := 500 + int(seed)
		a1 := saxpyArrays(n)
		a2 := saxpyArrays(n)
		if _, err := Run(buildSaxpyScalar(int64(n)), a1, machine.WestmereX980(), Options{Threads: 1}); err != nil {
			return false
		}
		if _, err := Run(buildSaxpyVec(int64(n)), a2, machine.WestmereX980(), Options{Threads: 1}); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if a1["y"].Data[i] != a2["y"].Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// Property: parallel and serial execution produce the same array contents
// for a data-parallel kernel.
func TestSerialParallelEquivalenceProperty(t *testing.T) {
	f := func(seed uint8) bool {
		n := 1000 + int(seed)*3
		a1 := saxpyArrays(n)
		a2 := saxpyArrays(n)
		if _, err := Run(buildSaxpyPar(int64(n)), a1, machine.WestmereX980(), Options{Threads: 1}); err != nil {
			return false
		}
		if _, err := Run(buildSaxpyPar(int64(n)), a2, machine.WestmereX980(), Options{Threads: 6}); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if a1["y"].Data[i] != a2["y"].Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEngineSaxpyVec(b *testing.B) {
	const n = 1 << 16
	p := buildSaxpyVec(n)
	arrays := saxpyArrays(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, arrays, machine.WestmereX980(), Options{Threads: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
