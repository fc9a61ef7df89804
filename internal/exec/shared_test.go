package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
	"ninjagap/internal/vm"
)

// sharedMachines is what the shared-run tests run on: the five presets,
// Fig 7's gather/scatter+FMA Westmere (FMA charged as one op where the
// base Westmere charges a mul plus an add) and a SetCost clone whose FP
// add is slower and longer (other port cycles and carried stalls).
func sharedMachines() []*machine.Machine {
	ms := machine.All()
	w := machine.WestmereX980()
	feat := w.Feat
	feat.HWGather, feat.HWScatter, feat.FMA = true, true, true
	slow := w.Clone()
	c := slow.Cost(machine.OpFPAdd)
	c.RecipTput *= 2
	c.Latency += 3
	slow.SetCost(machine.OpFPAdd, c)
	return append(ms, w.WithFeatures(feat), slow)
}

// reversed returns ms in reverse order, so another machine leads.
func reversed(ms []*machine.Machine) []*machine.Machine {
	out := make([]*machine.Machine, len(ms))
	for i, m := range ms {
		out[len(ms)-1-i] = m
	}
	return out
}

// checkShared runs one program shared across ms and alone on each of
// them, each run on its own copy of the inputs, and fails t unless every
// machine's Result is deeply equal and every array bitwise equal. fresh
// returns a new program and freshly filled arrays for a machine. It
// reports whether RunShared accepted the program; when it did not, it
// also checks that the shared attempt left the arrays untouched.
func checkShared(t *testing.T, fresh func(m *machine.Machine) (*vm.Prog, map[string]*vm.Array), ms []*machine.Machine, opt Options) bool {
	t.Helper()
	prog, arrays := fresh(ms[0])
	shared, err := RunShared(prog, arrays, ms, opt)
	if errors.Is(err, ErrNotShared) {
		_, untouched := fresh(ms[0])
		diffArrays(t, arrays, untouched)
		return false
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(shared) != len(ms) {
		t.Fatalf("RunShared returned %d results for %d machines", len(shared), len(ms))
	}
	for k, m := range ms {
		sp, sa := fresh(m)
		solo, err := Run(sp, sa, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shared[k], solo) {
			t.Errorf("%s (machine %d of %d): shared Result diverged from Run\nshared: %+v\nsolo:   %+v",
				m.Name, k, len(ms), shared[k], solo)
		}
		diffArrays(t, arrays, sa)
	}
	return true
}

// suiteFresh prepares a fresh instance of one kernel version per call.
func suiteFresh(t *testing.T, b kernels.Benchmark, v kernels.Version) func(*machine.Machine) (*vm.Prog, map[string]*vm.Array) {
	return func(m *machine.Machine) (*vm.Prog, map[string]*vm.Array) {
		inst, err := b.Prepare(v, m, legalN(b, b.TestN()))
		if err != nil {
			t.Fatal(err)
		}
		return inst.Prog, inst.Arrays
	}
}

// TestRunSharedMatchesRun is the admissibility check for shared runs:
// every suite kernel's naive program at test size, shared across the
// five presets, Fig 7's variant and a SetCost clone, must give each
// machine exactly the Result and arrays one Run on that machine gives,
// with the prefetcher on and off and with another machine leading. It
// also pins which naive programs share.
func TestRunSharedMatchesRun(t *testing.T) {
	refused := map[string]bool{"treesearch": true, "mergesort": true, "volumerender": true}
	ms := sharedMachines()
	shared := 0
	for _, b := range kernels.All() {
		t.Run(b.Name(), func(t *testing.T) {
			fresh := suiteFresh(t, b, kernels.Naive)
			ok := checkShared(t, fresh, ms, Options{Threads: 1})
			if ok == refused[b.Name()] {
				t.Fatalf("LaneIndependent(%s naive) = %v, want %v", b.Name(), ok, !refused[b.Name()])
			}
			if !ok {
				return
			}
			shared++
			checkShared(t, fresh, reversed(ms), Options{Threads: 1, DisablePrefetch: true})
		})
	}
	if want := len(kernels.All()) - len(refused); shared != want {
		t.Errorf("%d naive programs shared, want %d", shared, want)
	}
}

// hasVectorWork reports whether a program contains a vector loop or a
// lane-wide instruction other than those that write every lane at any
// width: the programs LaneIndependent must refuse, found without it.
func hasVectorWork(body []vm.Instr) bool {
	for i := range body {
		in := &body[i]
		switch in.Op {
		case vm.OpNop, vm.OpConst, vm.OpIota, vm.OpBroadcast, vm.OpCopy, vm.OpIf:
		case vm.OpLoop, vm.OpParLoop:
			if in.Vec {
				return true
			}
		default:
			if !in.Scalar {
				return true
			}
		}
		if hasVectorWork(in.Body) || hasVectorWork(in.Else) {
			return true
		}
	}
	return false
}

// TestLaneIndependentRefusesVectorWork runs the predicate over every
// suite program on every preset. It must refuse every program with vector
// work, and RunShared must refuse them without touching their arrays. A
// program it accepts, at any version, must run shared bit-identically.
func TestLaneIndependentRefusesVectorWork(t *testing.T) {
	ms := machine.All()
	vector := 0
	for _, b := range kernels.All() {
		for _, v := range kernels.Versions() {
			for _, m := range ms {
				inst, err := b.Prepare(v, m, legalN(b, b.TestN()))
				if err != nil {
					t.Fatal(err)
				}
				vec := hasVectorWork(inst.Prog.Body)
				if vec {
					vector++
				}
				if LaneIndependent(inst.Prog) && vec {
					t.Errorf("%s/%s on %s: LaneIndependent accepted a program with vector work", b.Name(), v, m.Name)
				}
			}
			if v == kernels.Naive {
				continue // TestRunSharedMatchesRun
			}
			checkShared(t, suiteFresh(t, b, v), ms, Options{Threads: 1})
		}
	}
	if vector == 0 {
		t.Error("no suite program has vector work; the refusal check is vacuous")
	}
}

// TestRunSharedPreconditions checks the refusals that do not depend on the
// program: more than one thread, and a machine that fails validation.
func TestRunSharedPreconditions(t *testing.T) {
	b, err := kernels.ByName("nbody")
	if err != nil {
		t.Fatal(err)
	}
	fresh := suiteFresh(t, b, kernels.Naive)
	ms := machine.All()
	for _, opt := range []Options{{}, {Threads: 2}} {
		prog, arrays := fresh(ms[0])
		if _, err := RunShared(prog, arrays, ms, opt); !errors.Is(err, ErrNotShared) {
			t.Errorf("Threads=%d: got %v, want ErrNotShared", opt.Threads, err)
		}
	}
	bad := ms[1].Clone()
	bad.Cores = 0
	prog, arrays := fresh(ms[0])
	if _, err := RunShared(prog, arrays, []*machine.Machine{ms[0], bad}, Options{Threads: 1}); !errors.Is(err, ErrNotShared) {
		t.Errorf("invalid machine: got %v, want ErrNotShared", err)
	}
}

// TestRunSharedBoundsError checks that a functional error fails the
// shared run with the error every solo run reports.
func TestRunSharedBoundsError(t *testing.T) {
	b := vm.NewBuilder("oob")
	a := b.Array("a", 4)
	i := b.Loop(0, 10)
	b.StoreScalar(a, i, i)
	b.End()
	prog := b.MustBuild()
	ms := machine.All()
	_, err := RunShared(prog, map[string]*vm.Array{"a": vm.NewArray("a", 4, 5)}, ms, Options{Threads: 1})
	_, want := Run(prog, map[string]*vm.Array{"a": vm.NewArray("a", 4, 5)}, ms[2], Options{Threads: 1})
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("shared error %v, solo error %v", err, want)
	}
}

// TestRunSharedPointerChase runs a carried load that overwrites its own
// base register (p = a[p], a pointer chase), so a follower that read the
// address after the leader ran the load would touch the wrong line.
func TestRunSharedPointerChase(t *testing.T) {
	const n = 4096
	b := vm.NewBuilder("chase")
	a := b.Array("a", 4)
	p := b.Const(0)
	b.Loop(0, 2000)
	b.Emit(vm.Instr{Op: vm.OpLoad, Dst: p, A: p, Arr: a, Scalar: true, Carried: true})
	b.End()
	b.StoreScalar(a, p, b.Const(0))
	prog := b.MustBuild()
	fresh := func(*machine.Machine) (*vm.Prog, map[string]*vm.Array) {
		arr := vm.NewArray("a", 4, n)
		for i := range arr.Data {
			arr.Data[i] = float64((i*1031 + 577) % n)
		}
		return prog, map[string]*vm.Array{"a": arr}
	}
	if !checkShared(t, fresh, sharedMachines(), Options{Threads: 1}) {
		t.Fatal("the pointer chase did not share")
	}
}

// genScalarCase builds a random single-threaded scalar program: nested
// static, dynamic and (top-level) parallel loops with unroll factors,
// if/else on compares, every scalar arithmetic, compare, mask, math and
// blend op, carried chains, address arithmetic, scalar loads and stores
// (some aliasing, some carried) and the lane-filling moves. One seed in
// eight also gets one instruction that makes the program lane-dependent;
// the second result says whether it did. Indices stay in bounds by
// construction.
func genScalarCase(r *rand.Rand) (fuzzCase, bool) {
	b := vm.NewBuilder("sharedfuzz")
	if r.Intn(3) == 0 {
		b.ElemBytes(8)
	}
	names := []string{"a0", "a1", "a2"}[:1+r.Intn(3)]
	elemB := map[string]int{}
	arrID := map[string]int{}
	sizes := map[string]int{}
	for _, nm := range names {
		elemB[nm] = 4 << r.Intn(2)
		arrID[nm] = b.Array(nm, elemB[nm])
		sizes[nm] = 8
	}
	need := func(nm string, hi int) {
		if hi+1 > sizes[nm] {
			sizes[nm] = hi + 1
		}
	}
	arr := func() string { return names[r.Intn(len(names))] }

	// index is an in-bounds index register and the largest value it takes.
	type index struct{ reg, hi int }
	vals := []int{b.Const(1.5), b.Const(-0.25)}
	idxs := []index{{b.Const(0), 0}}
	pick := func() int { return vals[r.Intn(len(vals))] }
	pickIdx := func() index { return idxs[r.Intn(len(idxs))] }

	dependent := r.Intn(8) == 0
	injected := false
	inject := func() {
		injected = true
		switch r.Intn(7) {
		case 0:
			vals = append(vals, b.Op2(vm.OpAdd, pick(), pick())) // lane-wide arithmetic
		case 1:
			vals = append(vals, b.Op1(vm.OpHAdd, pick()))
		case 2:
			vals = append(vals, b.MaskMov())
		case 3:
			vals = append(vals, b.Shuffle(pick(), []int{1, 0}))
		case 4:
			nm := arr()
			ix := pickIdx()
			need(nm, ix.hi)
			vals = append(vals, b.Gather(arrID[nm], ix.reg))
		case 5:
			b.IfMask(pick())
			vals = append(vals, b.Scalar2(vm.OpMul, pick(), pick()))
			b.End()
		case 6: // a vector loop runs its scalar body once per W iterations
			b.VecLoop(0, int64(1+r.Intn(40)))
			vals = append(vals, b.Scalar2(vm.OpAdd, pick(), pick()))
			b.MarkCarried()
			b.End()
		}
	}

	binOps := []vm.Op{vm.OpAdd, vm.OpSub, vm.OpMul, vm.OpDiv, vm.OpMin, vm.OpMax,
		vm.OpCmpLT, vm.OpCmpLE, vm.OpCmpGT, vm.OpCmpGE, vm.OpCmpEQ, vm.OpCmpNE, vm.OpAndM, vm.OpOrM}
	unOps := []vm.Op{vm.OpNeg, vm.OpAbs, vm.OpSqrt, vm.OpRsqrt, vm.OpRcp, vm.OpExp, vm.OpLog,
		vm.OpSin, vm.OpCos, vm.OpFloor, vm.OpNotM}

	var body func(depth int)
	body = func(depth int) {
		for k, nOps := 0, 2+r.Intn(8); k < nOps; k++ {
			if dependent && !injected && r.Intn(4) == 0 {
				inject()
			}
			switch r.Intn(14) {
			case 0, 1:
				vals = append(vals, b.Scalar2(binOps[r.Intn(len(binOps))], pick(), pick()))
				if r.Intn(4) == 0 {
					b.MarkCarried()
				}
			case 2:
				vals = append(vals, b.Scalar1(unOps[r.Intn(len(unOps))], pick()))
			case 3:
				d := b.Reg()
				b.Emit(vm.Instr{Op: vm.OpFMA, Dst: d, A: pick(), B: pick(), C: pick(),
					Scalar: true, Carried: r.Intn(3) == 0})
				vals = append(vals, d)
			case 4:
				d := b.Reg()
				b.Emit(vm.Instr{Op: vm.OpBlend, Dst: d, A: pick(), B: pick(), C: pick(), Scalar: true})
				vals = append(vals, d)
			case 5:
				switch r.Intn(4) {
				case 0:
					vals = append(vals, b.Const(r.Float64()*4-2))
				case 1:
					vals = append(vals, b.Iota(float64(r.Intn(4))))
				case 2:
					vals = append(vals, b.Broadcast(pick()))
				case 3:
					d := b.Reg()
					b.Emit(vm.Instr{Op: vm.OpCopy, Dst: d, A: pick(), Scalar: r.Intn(2) == 0})
					vals = append(vals, d)
				}
			case 6, 7:
				nm := arr()
				ix := pickIdx()
				need(nm, ix.hi)
				vals = append(vals, b.LoadScalar(arrID[nm], ix.reg))
				if r.Intn(4) == 0 {
					b.MarkCarried()
				}
			case 8, 9:
				nm := arr()
				ix := pickIdx()
				need(nm, ix.hi)
				b.StoreScalar(arrID[nm], pick(), ix.reg)
			case 10: // address arithmetic: i*mult + off, some spanning many lines
				ix := pickIdx()
				mult, off := 1+r.Intn(3), r.Intn(5)
				if r.Intn(3) == 0 {
					mult = 16 << r.Intn(5)
				}
				reg := b.ScalarAddr2(vm.OpMul, ix.reg, b.Const(float64(mult)))
				reg = b.ScalarAddr2(vm.OpAdd, reg, b.Const(float64(off)))
				idxs = append(idxs, index{reg, ix.hi*mult + off})
			case 11, 12:
				if depth >= 3 {
					continue
				}
				lo, trip := int64(r.Intn(4)), int64(1+r.Intn(24))
				var i int
				switch {
				case depth == 0 && r.Intn(3) == 0:
					i = b.ParLoop(lo, trip)
				case r.Intn(3) == 0:
					i = b.LoopDyn(lo, b.Const(float64(trip)))
				default:
					i = b.Loop(lo, trip)
				}
				if u := r.Intn(3); u > 0 {
					b.SetUnroll(1 << u)
				}
				saved := len(idxs)
				idxs = append(idxs, index{i, int(lo + trip - 1)})
				body(depth + 1)
				idxs = idxs[:saved]
				b.End()
			case 13:
				if depth >= 3 {
					continue
				}
				cond := b.Scalar2(vm.OpCmpLT, pick(), pick())
				b.If(cond, r.Float64()*0.3)
				body(depth + 1)
				if r.Intn(2) == 0 {
					b.Else()
					body(depth + 1)
				}
				b.End()
			}
		}
	}
	body(0)
	if dependent && !injected {
		inject()
	}
	prog := b.MustBuild()
	return fuzzCase{prog: prog, sizes: sizes, elemB: elemB, threads: 1}, !dependent
}

// TestRunSharedFuzz compares shared runs against one Run per machine over
// random scalar programs (120 seeds, 25 with -short), each seed on its
// own subset and order of sharedMachines. A seed whose generator made the
// program lane-dependent must be refused, every other accepted.
func TestRunSharedFuzz(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 25
	}
	all := sharedMachines()
	accepted, want := 0, 0
	for seed := 0; seed < trials; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(seed)))
			fc, independent := genScalarCase(r)
			if independent {
				want++
			}
			if got := LaneIndependent(fc.prog); got != independent {
				t.Fatalf("LaneIndependent = %v, want %v\n%s", got, independent, fc.prog.Dump())
			}
			perm := r.Perm(len(all))[:2+r.Intn(len(all)-1)]
			ms := make([]*machine.Machine, len(perm))
			for i, p := range perm {
				ms[i] = all[p]
			}
			fill := map[string][]float64{}
			for nm, n := range fc.sizes {
				d := make([]float64, n)
				for j := range d {
					d[j] = 4*r.Float64() - 2
				}
				fill[nm] = d
			}
			fresh := func(*machine.Machine) (*vm.Prog, map[string]*vm.Array) {
				arrays := map[string]*vm.Array{}
				for nm, n := range fc.sizes {
					a := vm.NewArray(nm, fc.elemB[nm], n)
					copy(a.Data, fill[nm])
					arrays[nm] = a
				}
				return fc.prog, arrays
			}
			opt := Options{Threads: 1, DisablePrefetch: r.Intn(4) == 0}
			if checkShared(t, fresh, ms, opt) {
				accepted++
			}
		})
	}
	if accepted != want || accepted < trials*3/4 {
		t.Errorf("RunShared accepted %d of %d seeds; the generator made %d lane-independent", accepted, trials, want)
	}
	t.Logf("RunShared accepted %d of %d seeds", accepted, trials)
}
