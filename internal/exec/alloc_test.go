package exec

import (
	"testing"

	"ninjagap/internal/machine"
	"ninjagap/internal/vm"
)

// allocProbeProg builds a program that drives every slow memory path —
// strided vector load and store, gather, scatter, and a masked vector tail —
// over n iterations.
func allocProbeProg(n int64) (*vm.Prog, func() map[string]*vm.Array) {
	b := vm.NewBuilder("allocprobe")
	src := b.Array("src", 4)
	dst := b.Array("dst", 4)
	i := b.VecLoop(0, n)
	two := b.Const(2)
	base := b.ScalarAddr2(vm.OpMul, i, two)
	v := b.Load(src, base, 2) // memSmall strided load
	b.Store(dst, v, base, 2)  // memSmall strided store
	g := b.Gather(src, i)     // per-lane gather
	b.Scatter(dst, g, i)      // per-lane scatter
	b.End()
	prog := b.MustBuild()
	mk := func() map[string]*vm.Array {
		return map[string]*vm.Array{
			"src": vm.NewArray("src", 4, int(2*n+16)),
			"dst": vm.NewArray("dst", 4, int(2*n+16)),
		}
	}
	return prog, mk
}

// interpProbeProg builds a program that drives the pure-interpreter hot
// paths the threaded dispatcher owns: scalar loads and stores, scalar
// arithmetic, a compare feeding a mask push, a masked if, and a
// data-dependent while loop — n scalar iterations with no vector loop.
func interpProbeProg(n int64) (*vm.Prog, func() map[string]*vm.Array) {
	b := vm.NewBuilder("interpprobe")
	src := b.Array("src", 4)
	dst := b.Array("dst", 4)
	one := b.Const(1)
	i := b.Loop(0, n)
	v := b.LoadScalar(src, i)        // scalar load handler
	w := b.Scalar2(vm.OpAdd, v, one) // scalar arithmetic handler
	b.StoreScalar(dst, w, i)         // scalar store handler
	c := b.Op2(vm.OpCmpLT, v, one)   // compare feeding a mask push
	b.IfMask(c)
	b.Op1(vm.OpNeg, v)
	b.End()
	ctr := b.Const(3)
	b.While(ctr, 0) // data-dependent loop: counts 3..1 down in place
	b.Emit(vm.Instr{Op: vm.OpSub, Dst: ctr, A: ctr, B: one})
	b.End()
	b.End()
	prog := b.MustBuild()
	mk := func() map[string]*vm.Array {
		return map[string]*vm.Array{
			"src": vm.NewArray("src", 4, int(n+16)),
			"dst": vm.NewArray("dst", 4, int(n+16)),
		}
	}
	return prog, mk
}

// TestInterpreterPathAllocs is TestSlowMemoryPathAllocs for the threaded
// dispatcher itself: a 32x larger pure-interpreter problem (every dynamic
// instruction goes through handler dispatch, the scalar handlers, the
// charge-row counters and the scalar memory path) must not allocate more
// than the small problem plus a small constant. Per-thread state — the
// register file, the mask stack, the cost accumulator —
// is pooled and sized by the program, never by n.
func TestInterpreterPathAllocs(t *testing.T) {
	m := machine.WestmereX980()
	run := func(n int64) float64 {
		prog, mk := interpProbeProg(n)
		arrays := mk()
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(prog, arrays, m, Options{Threads: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := run(64)
	big := run(64 * 32)
	if big > small+32 {
		t.Errorf("interpreter path allocates per access: %.0f allocs at n=64 vs %.0f at n=2048", small, big)
	}
}

// TestSlowMemoryPathAllocs guards the slow memory paths against per-access
// allocations: simulating a problem 32x larger must not allocate more than
// a run of the small problem plus a small constant (per-run fixed overhead
// only). The distinct-line scratch lives on threadCtx precisely so these
// paths never allocate per lane or per iteration.
func TestSlowMemoryPathAllocs(t *testing.T) {
	m := machine.WestmereX980()
	run := func(n int64) float64 {
		prog, mk := allocProbeProg(n)
		arrays := mk()
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(prog, arrays, m, Options{Threads: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := run(64)
	big := run(64 * 32)
	if big > small+32 {
		t.Errorf("slow memory paths allocate per access: %.0f allocs at n=64 vs %.0f at n=2048", small, big)
	}
}
