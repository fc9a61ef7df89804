package exec

import (
	"math"
	"reflect"
	"testing"

	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
	"ninjagap/internal/vm"
)

// legalN clamps a benchmark size to its minimum and the per-kernel size
// granularity (mirrors the gap package's size legalization, which exec
// tests cannot import without a cycle).
func legalN(b kernels.Benchmark, n int) int {
	if min := b.TestN(); n < min {
		n = min
	}
	switch b.Name() {
	case "complexconv", "blackscholes":
		return (n / 64) * 64
	}
	return n
}

// sameFunc reports whether two handlers are the same function.
func sameFunc(a, b handlerFn) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// runBound runs prog as Run does. With generic set, every instruction is
// first rebound to its op's generic handler (handlerFor), the reference the
// scalar handlers must match. It also returns how many instructions bind
// placed on a handler other than the generic one.
func runBound(t testing.TB, prog *vm.Prog, arrays map[string]*vm.Array, m *machine.Machine, opt Options, generic bool) (*Result, int) {
	t.Helper()
	e, err := newEngine(prog, arrays, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.releaseThreads()
	specialized := 0
	for i := range e.bp.instrs {
		bi := &e.bp.instrs[i]
		ref := handlerFor(bi.op)
		if !sameFunc(bi.fn, ref) {
			specialized++
		}
		if generic {
			bi.fn = ref
		}
	}
	if err := e.runTop(); err != nil {
		t.Fatal(err)
	}
	e.finish()
	r := e.res
	return &r, specialized
}

// diffArrays fails t at the first element whose bits differ between two
// runs' arrays (NaNs included, hence Float64bits).
func diffArrays(t testing.TB, bound, generic map[string]*vm.Array) {
	t.Helper()
	for name, ab := range bound {
		ag := generic[name]
		if ag == nil || len(ag.Data) != len(ab.Data) {
			t.Fatalf("array %q missing or resized in the generic run", name)
		}
		for j := range ab.Data {
			if math.Float64bits(ab.Data[j]) != math.Float64bits(ag.Data[j]) {
				t.Fatalf("array %s[%d] diverged: bound=%v (%#x) generic=%v (%#x)", name, j,
					ab.Data[j], math.Float64bits(ab.Data[j]), ag.Data[j], math.Float64bits(ag.Data[j]))
			}
		}
	}
}

// TestScalarHandlersMatchGeneric is the admissibility check for the scalar
// handlers: every kernel and version on every preset, at test size and
// with the thread count the gap layer gives it, must produce exactly the
// same Result (every float64 of the cycle decomposition, port occupancy
// and cache statistics) and bit-identical output arrays whether its
// instructions run on the handlers bind picked or all on the generic
// ones. It also requires that bind picked a scalar handler somewhere, so
// it cannot pass vacuously.
func TestScalarHandlersMatchGeneric(t *testing.T) {
	specialized := 0
	for _, m := range machine.All() {
		for _, b := range kernels.All() {
			n := legalN(b, b.TestN())
			for _, v := range kernels.Versions() {
				threads := m.HWThreads()
				if v.Serial() {
					threads = 1
				}
				opt := Options{Threads: threads}
				bound, err := b.Prepare(v, m, n)
				if err != nil {
					t.Fatal(err)
				}
				generic, err := b.Prepare(v, m, n)
				if err != nil {
					t.Fatal(err)
				}
				rb, k := runBound(t, bound.Prog, bound.Arrays, m, opt, false)
				rg, _ := runBound(t, generic.Prog, generic.Arrays, m, opt, true)
				specialized += k
				if !reflect.DeepEqual(rb, rg) {
					t.Errorf("%s %s/%s n=%d: Result diverged between bound and generic handlers\nbound:   %+v\ngeneric: %+v",
						m.Name, b.Name(), v, n, rb, rg)
				}
				diffArrays(t, bound.Arrays, generic.Arrays)
			}
		}
	}
	if specialized == 0 {
		t.Error("bind placed no instruction on a scalar handler; the comparison is vacuous")
	}
}

// TestOccupanciesAreQuarterCycles pins the precondition of costAcc.fold:
// every port occupancy a run can charge is a multiple of 1/4 cycle, so
// folding counted charges at the flush sums the same float64 values as
// adding them one by one. It covers every preset, Fig 7's
// gather/scatter+FMA Westmere and the ablation's core-count variants, at
// every lane count up to the widest vector (per-element classes scale by
// the live lane count).
func TestOccupanciesAreQuarterCycles(t *testing.T) {
	ms := machine.All()
	w := machine.WestmereX980()
	feat := w.Feat
	feat.HWGather, feat.HWScatter, feat.FMA = true, true, true
	ms = append(ms, w.WithFeatures(feat))
	for cores := 1; cores <= 6; cores++ {
		ms = append(ms, w.WithCores(cores))
	}
	for _, m := range ms {
		maxLanes := max(m.VecWidthF32, m.VecWidthF64)
		for cl := machine.OpClass(0); int(cl) < machine.NumOpClasses; cl++ {
			for lanes := 1; lanes <= maxLanes; lanes++ {
				occ := m.Cost(cl).Occupancy(lanes)
				if q := occ * 4; q != math.Trunc(q) || occ < 0 {
					t.Errorf("%s (%d cores): %s occupancy at %d lanes = %v, not a multiple of 1/4 cycle",
						m.Name, m.Cores, cl, lanes, occ)
				}
			}
		}
	}
}

// TestFlushSegmentCoreTieDeterministic builds a segment in which two cores
// tie on core time but differ in compute: core 0 has 10 compute and 5
// stall cycles, core 1 has 5 and 10. The lower core is critical, so every
// flush must charge 10 compute and 5 stall cycles. When the cores were
// grouped in a map, the critical core followed Go's random map order.
func TestFlushSegmentCoreTieDeterministic(t *testing.T) {
	b := vm.NewBuilder("tie")
	b.Const(0)
	prog := b.MustBuild()
	m := machine.WestmereX980().WithCores(2)
	var first Result
	for i := 0; i < 64; i++ {
		e, err := newEngine(prog, nil, m, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		t0, t1 := e.threads[0], e.threads[1]
		t0.cost.port[machine.PortFPAdd], t0.cost.stall = 10, 5
		t1.cost.port[machine.PortFPAdd], t1.cost.stall = 5, 10
		e.flushSegment(e.threads, false)
		e.finish()
		r := e.res
		e.releaseThreads()
		if r.ComputeCycles != 10 || r.StallCycles != 5 {
			t.Fatalf("flush %d: compute %v, stall %v cycles; want the lower core's 10 and 5",
				i, r.ComputeCycles, r.StallCycles)
		}
		if i == 0 {
			first = r
		} else if !reflect.DeepEqual(r, first) {
			t.Fatalf("flush %d: Result differs from the first flush\n got %+v\nwant %+v", i, r, first)
		}
	}
}
