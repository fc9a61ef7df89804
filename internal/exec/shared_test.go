package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
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
// with the prefetcher on and off and with another machine leading. Every
// naive program must share, the three whose loops are while loops
// (treesearch, mergesort, volumerender) included.
func TestRunSharedMatchesRun(t *testing.T) {
	ms := sharedMachines()
	shared := 0
	for _, b := range kernels.All() {
		t.Run(b.Name(), func(t *testing.T) {
			fresh := suiteFresh(t, b, kernels.Naive)
			if !checkShared(t, fresh, ms, Options{Threads: 1}) {
				t.Fatalf("LaneIndependent(%s naive) = false, want true", b.Name())
			}
			shared++
			checkShared(t, fresh, reversed(ms), Options{Threads: 1, DisablePrefetch: true})
		})
	}
	if want := len(kernels.All()); shared != want {
		t.Errorf("%d naive programs shared, want %d", shared, want)
	}
}

// hasVectorWork reports whether a program contains a vector loop, a
// lane-wide instruction other than those that write every lane at any
// width, or a while whose condition may be non-zero above lane 0: the
// programs LaneIndependent must refuse, found without it. A condition is
// lane 0's alone when each of its writers, searched for across the whole
// program, is a scalar op other than a lane-filling move, a const 0, or a
// copy of a register that is lane 0's alone; a register met again while
// its own writers are being checked adds no new writer.
func hasVectorWork(prog *vm.Prog) bool {
	var all []*vm.Instr
	var collect func(body []vm.Instr)
	collect = func(body []vm.Instr) {
		for i := range body {
			all = append(all, &body[i])
			collect(body[i].Body)
			collect(body[i].Else)
		}
	}
	collect(prog.Body)
	var laneZero func(r int, seen map[int]bool) bool
	laneZero = func(r int, seen map[int]bool) bool {
		if seen[r] {
			return true
		}
		seen[r] = true
		for _, in := range all {
			switch in.Op {
			case vm.OpStore, vm.OpScatter, vm.OpIf, vm.OpIfMask, vm.OpWhile, vm.OpNop:
				continue
			}
			if in.Dst != r {
				continue
			}
			switch in.Op {
			case vm.OpCopy:
				if !laneZero(in.A, seen) {
					return false
				}
			case vm.OpConst:
				if in.Imm != 0 {
					return false
				}
			case vm.OpIota, vm.OpBroadcast, vm.OpLoop, vm.OpParLoop, vm.OpMaskMov,
				vm.OpShuffle, vm.OpHAdd, vm.OpHMin, vm.OpHMax:
				return false
			default:
				if !in.Scalar {
					return false
				}
			}
		}
		return true
	}
	for _, in := range all {
		switch in.Op {
		case vm.OpNop, vm.OpConst, vm.OpIota, vm.OpBroadcast, vm.OpCopy, vm.OpIf:
		case vm.OpLoop, vm.OpParLoop:
			if in.Vec {
				return true
			}
		case vm.OpWhile:
			if !laneZero(in.A, map[int]bool{}) {
				return true
			}
		default:
			if !in.Scalar {
				return true
			}
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
				vec := hasVectorWork(inst.Prog)
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

	// Machines whose L1 fronts differ cannot share one L1 simulation.
	bigL1 := ms[2].Clone()
	bigL1.Caches[0].SizeBytes *= 2
	noPF := ms[2].Clone()
	noPF.Feat.HWPrefetch = false
	for _, other := range []*machine.Machine{bigL1, noPF} {
		prog, arrays := fresh(ms[0])
		if _, err := RunShared(prog, arrays, []*machine.Machine{ms[0], ms[2], other}, Options{Threads: 1}); !errors.Is(err, ErrNotShared) {
			t.Errorf("front %+v beside %+v: got %v, want ErrNotShared",
				Front(other, Options{Threads: 1}), Front(ms[0], Options{Threads: 1}), err)
		}
		_, untouched := fresh(ms[0])
		diffArrays(t, arrays, untouched)
	}
	// With the prefetcher off for every machine, the prefetch feature no
	// longer splits the front.
	if Front(noPF, Options{Threads: 1, DisablePrefetch: true}) != Front(ms[0], Options{Threads: 1, DisablePrefetch: true}) {
		t.Error("DisablePrefetch left the prefetch feature in the front")
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

// TestLaneIndependentWhileConditions pins the while rule writer by
// writer. Each program first writes a while's condition register one way,
// then runs five iterations whose condition is a copy of a scalar compare.
// The first write decides: a fresh register, a const 0, a scalar compare
// or a copy of one leave every lane above 0 zero, and the program must
// share bit-identically; a non-zero const, a broadcast, an iota, a loop
// induction or a copy of an iota may not, and it must be refused.
func TestLaneIndependentWhileConditions(t *testing.T) {
	cmp := func(b *vm.Builder) int { return b.Scalar2(vm.OpCmpLT, b.Const(0), b.Const(1)) }
	copyOf := func(b *vm.Builder, src int) int {
		d := b.Reg()
		b.Emit(vm.Instr{Op: vm.OpCopy, Dst: d, A: src, Scalar: true})
		return d
	}
	cases := []struct {
		name  string
		first func(b *vm.Builder) int
		admit bool
	}{
		{"fresh register", func(b *vm.Builder) int { return b.Reg() }, true},
		{"const 0", func(b *vm.Builder) int { return b.Const(0) }, true},
		{"scalar compare", cmp, true},
		{"copy of a scalar compare", func(b *vm.Builder) int { return copyOf(b, cmp(b)) }, true},
		{"non-zero const", func(b *vm.Builder) int { return b.Const(2) }, false},
		{"broadcast", func(b *vm.Builder) int { return b.Broadcast(b.Const(1)) }, false},
		{"iota", func(b *vm.Builder) int { return b.Iota(0) }, false},
		{"loop induction", func(b *vm.Builder) int { i := b.Loop(1, 1); b.End(); return i }, false},
		{"copy of an iota", func(b *vm.Builder) int { return copyOf(b, b.Iota(0)) }, false},
	}
	for _, tc := range cases {
		b := vm.NewBuilder("whilecond")
		a := b.Array("a", 4)
		cond := tc.first(b)
		k := copyOf(b, b.Const(0))
		lim := b.Const(5)
		b.Emit(vm.Instr{Op: vm.OpCopy, Dst: cond, A: b.Scalar2(vm.OpCmpLT, k, lim), Scalar: true})
		b.While(cond, 0.1)
		b.StoreScalar(a, b.Scalar2(vm.OpAdd, b.LoadScalar(a, k), b.Const(1)), k)
		b.Emit(vm.Instr{Op: vm.OpAdd, Dst: k, A: k, B: b.Const(1), Scalar: true, Addr: true})
		b.Emit(vm.Instr{Op: vm.OpCopy, Dst: cond, A: b.Scalar2(vm.OpCmpLT, k, lim), Scalar: true})
		b.End()
		prog := b.MustBuild()
		if got := LaneIndependent(prog); got != tc.admit {
			t.Errorf("%s: LaneIndependent = %v, want %v", tc.name, got, tc.admit)
			continue
		}
		fresh := func(*machine.Machine) (*vm.Prog, map[string]*vm.Array) {
			return prog, map[string]*vm.Array{"a": vm.NewArray("a", 4, 8)}
		}
		if checkShared(t, fresh, sharedMachines(), Options{Threads: 1}) != tc.admit {
			t.Errorf("%s: RunShared disagrees with LaneIndependent", tc.name)
		}
	}
}

// genScalarCase builds a random single-threaded scalar program: nested
// static, dynamic and (top-level) parallel loops with unroll factors,
// if/else on compares, bounded while loops, every scalar arithmetic,
// compare, mask, math and blend op, carried chains, address arithmetic,
// scalar loads and stores (some aliasing, some carried) and the
// lane-filling moves. One seed in eight also gets one construct that
// LaneIndependent must refuse; the second result names it, or is "" when
// there is none. Indices stay in bounds by construction.
func genScalarCase(r *rand.Rand) (fuzzCase, string) {
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
	injected := ""
	var body func(depth int)

	// while emits a while loop of at most five iterations over a counter
	// k. Its condition register is written by copies of a scalar compare
	// of k, so it is zero above lane 0 and LaneIndependent admits it,
	// unless wide names a lane-wide writer that also writes the register
	// first: a non-zero const, a broadcast, an iota or a loop induction.
	// The body sees k as an index.
	while := func(depth int, wide string) {
		k := b.Reg()
		b.Emit(vm.Instr{Op: vm.OpCopy, Dst: k, A: b.Const(0), Scalar: true})
		trip := r.Intn(6)
		lim := b.Const(float64(trip))
		cond := b.Reg()
		switch wide {
		case "const":
			cond = b.Const(float64(1 + r.Intn(3)))
		case "broadcast":
			cond = b.Broadcast(pick())
		case "iota":
			cond = b.Iota(float64(r.Intn(4)))
		case "induction":
			cond = b.Loop(1, 1)
			b.End()
		}
		b.Emit(vm.Instr{Op: vm.OpCopy, Dst: cond, A: b.Scalar2(vm.OpCmpLT, k, lim), Scalar: true})
		b.While(cond, r.Float64()*0.3)
		if depth < 3 {
			saved := len(idxs)
			idxs = append(idxs, index{k, max(trip-1, 0)})
			body(depth + 1)
			idxs = idxs[:saved]
		}
		b.Emit(vm.Instr{Op: vm.OpAdd, Dst: k, A: k, B: b.Const(1), Scalar: true, Addr: true})
		b.Emit(vm.Instr{Op: vm.OpCopy, Dst: cond, A: b.Scalar2(vm.OpCmpLT, k, lim), Scalar: true})
		b.End()
	}

	// inject emits one lane-dependent construct; half of them are while
	// loops whose condition register also has a lane-wide writer.
	inject := func(depth int) {
		if r.Intn(2) == 0 {
			wide := []string{"const", "broadcast", "iota", "induction"}[r.Intn(4)]
			injected = "while also written by " + wide
			while(depth, wide)
			return
		}
		switch r.Intn(7) {
		case 0:
			injected = "lane-wide add"
			vals = append(vals, b.Op2(vm.OpAdd, pick(), pick()))
		case 1:
			injected = "hadd"
			vals = append(vals, b.Op1(vm.OpHAdd, pick()))
		case 2:
			injected = "maskmov"
			vals = append(vals, b.MaskMov())
		case 3:
			injected = "shuffle"
			vals = append(vals, b.Shuffle(pick(), []int{1, 0}))
		case 4:
			injected = "gather"
			nm := arr()
			ix := pickIdx()
			need(nm, ix.hi)
			vals = append(vals, b.Gather(arrID[nm], ix.reg))
		case 5:
			injected = "ifmask"
			b.IfMask(pick())
			vals = append(vals, b.Scalar2(vm.OpMul, pick(), pick()))
			b.End()
		case 6: // a vector loop runs its scalar body once per W iterations
			injected = "vector loop"
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

	body = func(depth int) {
		for k, nOps := 0, 2+r.Intn(8); k < nOps; k++ {
			if dependent && injected == "" && r.Intn(4) == 0 {
				inject(depth)
			}
			switch r.Intn(15) {
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
			case 14:
				if depth < 3 {
					while(depth, "")
				}
			}
		}
	}
	body(0)
	if dependent && injected == "" {
		inject(0)
	}
	prog := b.MustBuild()
	return fuzzCase{prog: prog, sizes: sizes, elemB: elemB, threads: 1}, injected
}

// TestRunSharedFuzz compares shared runs against one Run per machine over
// random scalar programs (120 seeds, 25 with -short), each seed on its
// own subset and order of sharedMachines. A seed whose generator injected
// a lane-dependent construct must be refused, every other accepted, so
// each refusal is matched to its injection.
func TestRunSharedFuzz(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 25
	}
	all := sharedMachines()
	accepted, want, whiles := 0, 0, 0
	injections := map[string]int{}
	for seed := 0; seed < trials; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(seed)))
			fc, injected := genScalarCase(r)
			injections[injected]++
			if injected == "" {
				want++
				if strings.Contains(fc.prog.Dump(), "while") {
					whiles++
				}
			}
			if got := LaneIndependent(fc.prog); got != (injected == "") {
				t.Fatalf("LaneIndependent = %v with injection %q\n%s", got, injected, fc.prog.Dump())
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
	if whiles < accepted/4 {
		t.Errorf("only %d of %d accepted programs have a while loop", whiles, accepted)
	}
	delete(injections, "")
	t.Logf("RunShared accepted %d of %d seeds, %d of them with while loops; refused injections: %v",
		accepted, trials, whiles, injections)
}
