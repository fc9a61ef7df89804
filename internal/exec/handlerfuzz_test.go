package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ninjagap/internal/machine"
	"ninjagap/internal/vm"
)

// Differential property test for the scalar handlers: randomly generated
// vector-loop nests are executed twice — once on the handlers bind picks
// and once with every instruction rebound to its op's generic handler —
// and the two runs must agree exactly: the full exec.Result field for
// field and every array element bit for bit (NaNs included, hence the
// Float64bits comparison). The generator mixes scalar loads, stores,
// arithmetic, compares and FMAs (some on loop-carried chains) with vector
// arithmetic and strided, gathered, scattered, non-affine and aliasing
// accesses, short and long trips, and parallel loops, so the scalar
// handlers run against their generic references in many charge,
// predication and cache-state contexts.

// fuzzCase is one generated program plus the array shapes it needs.
type fuzzCase struct {
	prog    *vm.Prog
	sizes   map[string]int
	elemB   map[string]int
	threads int
}

// genFuzzCase builds a random program from the given source. All accesses
// are kept in bounds by construction (sizes grow with the worst-case index
// of every emitted access), so neither run can fail; divergence, not
// error handling, is what this test is about.
//
// tame restricts generation to unit-stride accesses at offset-only bases,
// with no gathers or scatters. Wild cases keep the full op mix:
// multi-stride loads, induction gathers/scatters, non-affine floor'd
// indices, aliasing stores. Both emit scalar (lane-0) work.
func genFuzzCase(r *rand.Rand, tame bool) fuzzCase {
	b := vm.NewBuilder("handlerfuzz")
	names := []string{"a0", "a1", "a2"}[:1+r.Intn(3)]
	elemB := map[string]int{}
	arrID := map[string]int{}
	sizes := map[string]int{}
	for _, nm := range names {
		eb := 4
		if r.Intn(3) == 0 {
			eb = 8
		}
		elemB[nm] = eb
		arrID[nm] = b.Array(nm, eb)
		sizes[nm] = 64
	}
	need := func(nm string, n int) {
		if n+vm.MaxLanes+8 > sizes[nm] {
			sizes[nm] = n + vm.MaxLanes + 8
		}
	}
	threads := 1
	nLoops := 1 + r.Intn(2)
	for loop := 0; loop < nLoops; loop++ {
		lo := int64(r.Intn(5))
		trip := int64(1 + r.Intn(300))
		// A parallel loop's two threads run concurrently, so no element
		// one iteration stores may be loaded or stored by another, or the
		// final arrays would depend on the interleaving. Such a loop reads
		// only arrays it does not write, and writes each of its arrays
		// through exactly one unit-stride or scalar store at i+off or one
		// induction scatter. It needs two arrays to do both.
		par := r.Intn(4) == 0 && len(names) > 1
		var i int
		if par {
			i = b.ParVecLoop(lo, trip)
			threads = 2
		} else {
			i = b.VecLoop(lo, trip)
		}
		reads, writes := names, names
		if par {
			perm := r.Perm(len(names))
			nw := 1 + r.Intn(len(names)-1)
			writes, reads = nil, nil
			for k, j := range perm {
				if k < nw {
					writes = append(writes, names[j])
				} else {
					reads = append(reads, names[j])
				}
			}
		}
		readArr := func() string { return reads[r.Intn(len(reads))] }
		// writeArr picks a store target: any array in a sequential loop,
		// a not yet written one in a parallel loop ("" once none is left).
		written := map[string]bool{}
		writeArr := func() string {
			if !par {
				return names[r.Intn(len(names))]
			}
			for _, nm := range writes {
				if !written[nm] {
					written[nm] = true
					return nm
				}
			}
			return ""
		}
		if u := r.Intn(3); u > 0 {
			b.SetUnroll(1 << u)
		}
		hiIter := int(lo + trip - 1)

		// base = i*mult + off, affine by construction; returns the base
		// register and the largest element index lane 0 can address.
		// unit forces mult 1, so consecutive iterations' footprints abut
		// instead of overlapping.
		mkBase := func(unit bool) (int, int) {
			mult := 1
			if !tame && !unit {
				mult += r.Intn(3)
			}
			off := r.Intn(8)
			base := i
			if mult > 1 {
				base = b.ScalarAddr2(vm.OpMul, i, b.Const(float64(mult)))
			}
			if off > 0 {
				base = b.ScalarAddr2(vm.OpAdd, base, b.Const(float64(off)))
			}
			return base, mult*hiIter + off
		}

		var vals []int
		pick := func() int { return vals[r.Intn(len(vals))] }
		load := func() {
			nm := readArr()
			base, hi := mkBase(false)
			stride := 1
			if !tame {
				stride += r.Intn(3)
			}
			need(nm, hi+stride*vm.MaxLanes)
			vals = append(vals, b.Load(arrID[nm], base, stride))
		}
		load()
		for k, nOps := 0, 2+r.Intn(8); k < nOps; k++ {
			kind := r.Intn(14)
			if tame && (kind == 6 || kind == 7 || kind == 9) {
				kind = r.Intn(6) // arith, unary, FMA or another load
			}
			switch kind {
			case 0, 1, 2:
				ops := []vm.Op{vm.OpAdd, vm.OpSub, vm.OpMul, vm.OpMin, vm.OpMax}
				vals = append(vals, b.Op2(ops[r.Intn(len(ops))], pick(), pick()))
			case 3:
				ops := []vm.Op{vm.OpNeg, vm.OpAbs, vm.OpSqrt}
				vals = append(vals, b.Op1(ops[r.Intn(len(ops))], pick()))
			case 4:
				vals = append(vals, b.FMA(pick(), pick(), pick()))
			case 5:
				load()
			case 6: // induction gather
				nm := readArr()
				need(nm, hiIter)
				vals = append(vals, b.Gather(arrID[nm], i))
			case 7: // floor(i/2) gather: non-affine index
				nm := readArr()
				need(nm, hiIter/2+1)
				idx := b.Op1(vm.OpFloor, b.Op2(vm.OpMul, i, b.Const(0.5)))
				vals = append(vals, b.Gather(arrID[nm], idx))
			case 8:
				nm := writeArr()
				if nm == "" {
					break
				}
				base, hi := mkBase(par)
				stride := 1
				if !tame && !par {
					stride += r.Intn(2)
				}
				need(nm, hi+stride*vm.MaxLanes)
				b.Store(arrID[nm], pick(), base, stride)
			case 9: // induction scatter
				nm := writeArr()
				if nm == "" {
					break
				}
				need(nm, hiIter)
				b.Scatter(arrID[nm], pick(), i)
			case 10: // scalar arithmetic or compare
				ops := []vm.Op{vm.OpAdd, vm.OpSub, vm.OpMul, vm.OpMin, vm.OpMax,
					vm.OpCmpLT, vm.OpCmpLE, vm.OpCmpGT, vm.OpCmpGE, vm.OpCmpEQ, vm.OpCmpNE}
				vals = append(vals, b.Scalar2(ops[r.Intn(len(ops))], pick(), pick()))
				if r.Intn(4) == 0 {
					b.MarkCarried()
				}
			case 11: // scalar FMA
				d := b.Reg()
				b.Emit(vm.Instr{Op: vm.OpFMA, Dst: d, A: pick(), B: pick(), C: pick(),
					Scalar: true, Carried: r.Intn(4) == 0})
				vals = append(vals, d)
			case 12: // scalar load
				nm := readArr()
				base, hi := mkBase(false)
				need(nm, hi)
				vals = append(vals, b.LoadScalar(arrID[nm], base))
				if r.Intn(4) == 0 {
					b.MarkCarried()
				}
			case 13: // scalar store
				nm := writeArr()
				if nm == "" {
					break
				}
				base, hi := mkBase(par)
				need(nm, hi)
				b.StoreScalar(arrID[nm], pick(), base)
			}
		}
		// Always store something so the loop's work is observable. In a
		// sequential loop the target is drawn from the same pool the
		// loads use, so stores regularly land on an array the loop also
		// reads; a parallel loop that has written all its arrays already
		// stores something.
		if nm := writeArr(); nm != "" {
			base, hi := mkBase(par)
			need(nm, hi+vm.MaxLanes)
			b.Store(arrID[nm], pick(), base, 1)
		}
		b.End()
	}
	return fuzzCase{prog: b.MustBuild(), sizes: sizes, elemB: elemB, threads: threads}
}

// TestMacroblockDifferentialFuzz runs the generator above over 120 seeds
// (25 with -short). The name predates the removal of macro-block replay
// and then of superinstruction fusion, which this test compared against
// plain interpretation in turn; it is kept so the test's history and its
// seed subtests stay under one name. It now checks the scalar handlers.
func TestMacroblockDifferentialFuzz(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 25
	}
	m := machine.WestmereX980()
	engaged := 0
	for seed := 0; seed < trials; seed++ {
		seed := seed
		tame := seed%2 == 0
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(seed)))
			fc := genFuzzCase(r, tame)

			// One shared fill so both runs start from identical bits.
			fill := map[string][]float64{}
			fr := rand.New(rand.NewSource(int64(seed)*1001 + 7))
			for nm, n := range fc.sizes {
				d := make([]float64, n)
				for j := range d {
					d[j] = 4*fr.Float64() - 2
				}
				fill[nm] = d
			}
			run := func(generic bool) (*Result, int, map[string]*vm.Array) {
				arrays := map[string]*vm.Array{}
				for nm, n := range fc.sizes {
					a := vm.NewArray(nm, fc.elemB[nm], n)
					copy(a.Data, fill[nm])
					arrays[nm] = a
				}
				res, k := runBound(t, fc.prog, arrays, m, Options{Threads: fc.threads}, generic)
				return res, k, arrays
			}

			boundRes, k, boundArr := run(false)
			if k > 0 {
				engaged++
			}
			genericRes, _, genericArr := run(true)
			if !reflect.DeepEqual(boundRes, genericRes) {
				t.Errorf("result diverged\nbound:   %+v\ngeneric: %+v", boundRes, genericRes)
			}
			diffArrays(t, boundArr, genericArr)
		})
	}
	// The bit-identity above is vacuous if no generated program bound a
	// scalar handler.
	if engaged == 0 {
		t.Errorf("no generated case bound a scalar handler — the generator no longer emits scalar work")
	} else {
		t.Logf("scalar handlers bound in %d of %d cases", engaged, trials)
	}
}
