package exec

// Shared serial runs. A serial program whose functional run does not
// depend on the SIMD width computes the same registers, arrays, branch
// outcomes and addresses on every machine; only the cost model differs.
// RunShared runs such a program once and charges every machine's cost
// model along with it, so a batch measuring one kernel on several
// machines dispatches and computes each instruction once instead of once
// per machine.
//
// What is shared and what is not:
//
//   - The first machine (the leader) runs exactly as Run would run it, on
//     the solo dispatch loop (threadCtx.exec) and the solo handlers,
//     charging its own cost. Only the instructions at which followers owe
//     work are rebound, to handlers that run the solo handler's work and
//     then the followers': loads, ops with a carried stall, and if, loop
//     and while.
//   - Every other machine (a follower) keeps its own engine: its own bound
//     program, thread context, charge counters, stall sum and segment
//     flush, and its own cache levels below L1. Its L1 is the leader's:
//     all of them have one L1 front (cache.Front), so one L1 simulation
//     decides every machine's hits, and the leader's hierarchy forwards
//     each event below L1 to every follower's lower levels (cache.Lead).
//   - Charges are counted per executed span (a loop body per iteration,
//     an if's taken side, a while body per iteration) and expanded into
//     each follower's row counters before its flushSegment (settle), which
//     is exact for the reason costAcc.fold is: every occupancy is a
//     multiple of 1/4 cycle. Stalls are not such multiples, so each
//     follower adds its own carried, branch-miss and cache-miss stalls at
//     the instruction that incurs them, in dynamic order.
//
// Each machine therefore sees exactly the events a solo run gives it, and
// its Result is bit-identical to Run's (TestRunSharedMatchesRun).

import (
	"errors"

	"ninjagap/internal/cache"
	"ninjagap/internal/machine"
	"ninjagap/internal/vm"
)

// ErrNotShared is returned, with nothing run, by RunShared when the run
// cannot be shared: the program is not LaneIndependent, the options ask
// for other than one thread, a machine fails validation, or the machines'
// cache fronts differ (Front). The caller then runs each machine alone.
var ErrNotShared = errors.New("exec: run cannot be shared across machines")

// LaneIndependent reports whether prog's functional run is the same at
// every SIMD width, so one run can drive several machines' cost models
// (RunShared). That holds when every instruction is scalar, or is one of
// nop, const, iota, broadcast and copy (which write all vm.MaxLanes lanes
// at any width); loops are not vector loops; if reads lane 0; and every
// while tests a condition register that is zero above lane 0 throughout
// the run (see laneWide), so its mask is lane 0's at any width. ifmask
// builds its mask over the machine's lane count, a gather's or scatter's
// charge reads the live mask, and shuffles, horizontal reductions and mask
// moves read lanes by width, so any of them refuses.
func LaneIndependent(prog *vm.Prog) bool {
	wide := laneWide(prog)
	return wide != nil && laneIndependent(prog.Body, wide)
}

func laneIndependent(body []vm.Instr, wide []bool) bool {
	for i := range body {
		in := &body[i]
		switch in.Op {
		case vm.OpNop, vm.OpConst, vm.OpIota, vm.OpBroadcast, vm.OpCopy, vm.OpIf:
		case vm.OpLoop, vm.OpParLoop:
			if in.Vec {
				return false
			}
		case vm.OpWhile:
			if in.A < 0 || in.A >= len(wide) || wide[in.A] {
				return false
			}
		case vm.OpIfMask, vm.OpGather, vm.OpScatter, vm.OpShuffle,
			vm.OpMaskMov, vm.OpHAdd, vm.OpHMin, vm.OpHMax:
			return false
		default:
			if !in.Scalar || in.Op < 0 || int(in.Op) >= vm.NumOps {
				return false
			}
		}
		if !laneIndependent(in.Body, wide) || !laneIndependent(in.Else, wide) {
			return false
		}
	}
	return true
}

// laneWide returns, per register, whether a lane above 0 may become
// non-zero during a run (nil for a register count Validate refuses).
// Registers start zeroed. A register stays zero above lane 0 when every
// instruction that writes it is a scalar op that writes lane 0 alone, a
// const 0, or a copy of a register that stays zero above lane 0. Any
// other writer makes it wide: a non-zero const, an iota, a broadcast, a
// loop induction (which fill every lane), and any op that is not scalar.
func laneWide(prog *vm.Prog) []bool {
	if prog.NumRegs <= 0 || prog.NumRegs > 1<<16 {
		return nil
	}
	wide := make([]bool, prog.NumRegs)
	mark := func(r int) bool {
		if r < 0 || r >= len(wide) || wide[r] {
			return false
		}
		wide[r] = true
		return true
	}
	var copies [][2]int // {dst, src}
	var walk func(body []vm.Instr)
	walk = func(body []vm.Instr) {
		for i := range body {
			in := &body[i]
			switch in.Op {
			case vm.OpNop, vm.OpStore, vm.OpScatter, vm.OpIf, vm.OpIfMask, vm.OpWhile:
				// no destination register
			case vm.OpConst:
				if in.Imm != 0 {
					mark(in.Dst)
				}
			case vm.OpCopy:
				copies = append(copies, [2]int{in.Dst, in.A})
			case vm.OpIota, vm.OpBroadcast, vm.OpLoop, vm.OpParLoop,
				vm.OpShuffle, vm.OpMaskMov, vm.OpHAdd, vm.OpHMin, vm.OpHMax:
				mark(in.Dst)
			default:
				if !in.Scalar {
					mark(in.Dst)
				}
			}
			walk(in.Body)
			walk(in.Else)
		}
	}
	walk(prog.Body)
	for changed := true; changed; {
		changed = false
		for _, c := range copies {
			if c[1] < 0 || c[1] >= len(wide) || wide[c[1]] {
				changed = mark(c[0]) || changed
			}
		}
	}
	return wide
}

// Front returns the cache front (cache.Front) of a run on m with opt: the
// part of the simulated hierarchy that decides L1 hits. RunShared runs
// only machines whose fronts are equal, and the scheduler groups only
// such cells. It is a planning input, never part of a cell's identity.
func Front(m *machine.Machine, opt Options) cache.Front {
	_, _, hc := layout(m, opt)
	return cache.FrontOf(m, hc)
}

// RunShared runs a lane-independent program once, on one thread, and
// simulates its cost on every machine in ms. results[k] is bit-identical
// to what Run(prog, arrays, ms[k], opt) returns on fresh arrays, and the
// arrays end as any one of those runs leaves them. A functional error (an
// out-of-range index) fails every machine alike and is returned as is.
// When the run cannot be shared it returns ErrNotShared and leaves the
// arrays untouched.
func RunShared(prog *vm.Prog, arrays map[string]*vm.Array, ms []*machine.Machine, opt Options) ([]*Result, error) {
	if opt.Threads != 1 || !LaneIndependent(prog) {
		return nil, ErrNotShared
	}
	for _, m := range ms {
		if m.Validate() != nil || Front(m, opt) != Front(ms[0], opt) {
			return nil, ErrNotShared
		}
	}
	if len(ms) == 0 {
		return nil, nil
	}
	g := &shared{}
	defer g.release()
	for _, m := range ms {
		e, err := newEngine(prog, arrays, m, opt)
		if err != nil {
			return nil, err
		}
		g.engines = append(g.engines, e)
	}
	if err := g.bind(); err != nil {
		return nil, ErrNotShared
	}

	if err := g.engines[0].runTop(); err != nil {
		return nil, err
	}
	out := make([]*Result, len(g.engines))
	for k, e := range g.engines {
		if k > 0 {
			g.settle(g.followers[k-1])
			e.flushSegment(e.threads, false)
		}
		e.finish()
		r := e.res
		out[k] = &r
	}
	return out, nil
}

// shared is one shared run: the leader's engine executes, the followers'
// engines are charged.
type shared struct {
	engines   []*engine // the leader first, then the followers
	followers []follower
	// spanN counts the executions of each span: the top span at 0, the
	// body of instruction i at 2i+1 and its else at 2i+2. Instruction i
	// lies in span in[i], so it was dispatched spanN[in[i]] times, and a
	// while at i ran spanN[2i+1] iterations.
	spanN []uint64
	in    []int32
	ev    []uint64 // charged iterations per loop instruction
}

// follower is one follower machine's engine, thread and bound program.
type follower struct {
	e   *engine
	t   *threadCtx
	ins []bInstr
}

// bind attaches the followers' hierarchies to the leader's, maps every
// instruction to its span, and rebinds the leader's instructions at which
// followers owe work.
func (g *shared) bind() error {
	lead := g.engines[0]
	hs := make([]*cache.Hierarchy, 0, len(g.engines)-1)
	for _, e := range g.engines[1:] {
		f := follower{e: e, t: e.threads[0], ins: e.bp.instrs}
		g.followers = append(g.followers, f)
		hs = append(hs, f.t.hier)
	}
	if err := lead.threads[0].hier.Lead(hs...); err != nil {
		return err
	}
	ins := lead.bp.instrs
	g.spanN = make([]uint64, 2*len(ins)+1)
	g.spanN[0] = 1
	g.in = make([]int32, len(ins))
	g.ev = make([]uint64, len(ins))
	g.mapSpan(ins, lead.bp.top, 0)
	for i := range ins {
		bi := &ins[i]
		switch bi.op {
		case vm.OpLoop, vm.OpParLoop:
			bi.fn = g.loop
		case vm.OpIf:
			bi.fn = g.branch
		case vm.OpWhile:
			bi.fn = g.while
		case vm.OpLoad:
			bi.fn = g.load
		default:
			if g.carried(i) {
				solo := bi.fn
				bi.fn = func(t *threadCtx, bi *bInstr) {
					solo(t, bi)
					for _, f := range g.followers {
						f.t.addCarried(&f.ins[bi.idx])
					}
				}
			}
		}
	}
	return nil
}

// mapSpan records id as the span of every instruction in s, and the ids
// of their bodies below them.
func (g *shared) mapSpan(ins []bInstr, s vm.Span, id int32) {
	for i := s.Start; i < s.End; i++ {
		g.in[i] = id
		g.mapSpan(ins, ins[i].body, 2*i+1)
		g.mapSpan(ins, ins[i].els, 2*i+2)
	}
}

// carried reports whether some follower adds a carried stall at
// instruction i.
func (g *shared) carried(i int) bool {
	for _, f := range g.followers {
		if f.ins[i].carriedStall != 0 {
			return true
		}
	}
	return false
}

// load is hLoadS for the leader; then each follower adds its carried
// stall and, when the access missed L1, the miss stall of what its own
// lower levels served the miss with. A load that is not carried (no
// machine has a carried stall for it) and hit L1 owes the followers
// nothing.
func (g *shared) load(t *threadCtx, bi *bInstr) {
	arr := bi.arr
	base := int64(t.reg(bi.a)[0])
	if base < 0 || base >= int64(len(arr.Data)) {
		t.boundsErr(bi, base)
		return
	}
	t.reg(bi.dst)[0] = arr.Data[base]
	t.cost.add(bi.ch)
	t.addCarried(bi)
	lvl, lat := t.hier.AccessCost(t.e.lineOf(arr.Base+uint64(base)*bi.eb), false)
	missed := lvl != cache.L1
	if missed {
		if pen := lat - t.e.l1Latency; pen > 0 {
			t.cost.stall += pen / bi.mlp
		}
	} else if !bi.carried {
		return
	}
	for _, f := range g.followers {
		fb := &f.ins[bi.idx]
		f.t.addCarried(fb)
		if missed {
			_, lat := f.t.hier.LastMiss()
			if pen := lat - f.e.l1Latency; pen > 0 {
				f.t.cost.stall += pen / fb.mlp
			}
		}
	}
}

// loop is hLoop, counting the body's executions and the charged
// iterations.
func (g *shared) loop(t *threadCtx, bi *bInstr) {
	n := t.tripCount(bi)
	t.loopRange(bi, bi.lo, bi.lo+n)
	if n > 0 {
		u := int64(bi.unroll)
		g.spanN[2*bi.idx+1] += uint64(n)
		g.ev[bi.idx] += uint64((n + u - 1) / u)
	}
}

// branch is threadCtx.branch with every follower's miss stall, counting
// the side taken.
func (g *shared) branch(t *threadCtx, bi *bInstr) {
	t.cost.add(bi.ch)
	t.addMissStall(bi)
	g.addMissStalls(bi.idx)
	if t.regs[bi.a] != 0 {
		g.spanN[2*bi.idx+1]++
		t.exec(bi.body)
	} else {
		g.spanN[2*bi.idx+2]++
		t.exec(bi.els)
	}
}

// while is threadCtx.while with every follower's miss stall per
// iteration, counting the iterations. LaneIndependent admits only a
// condition that is zero above lane 0, so the mask is lane 0's.
func (g *shared) while(t *threadCtx, bi *bInstr) {
	for {
		m := t.whileMask(bi)
		if m == 0 {
			return
		}
		t.cost.add(bi.ch)
		t.addMissStall(bi)
		g.addMissStalls(bi.idx)
		g.spanN[2*bi.idx+1]++
		t.pushMask(m)
		t.exec(bi.body)
		t.popMask()
	}
}

// addMissStalls adds every follower's branch-miss stall for instruction i.
func (g *shared) addMissStalls(i int32) {
	for _, f := range g.followers {
		f.t.addMissStall(&f.ins[i])
	}
}

// settle adds the counted charges of a shared run to follower f's row
// counters and flops, as its solo handlers would have charged them one
// event at a time: a loop charges its induction update and back-edge per
// charged iteration, a while its branch per iteration; every other
// instruction LaneIndependent admits charges its primary row per
// dispatch, an FMA without FMA hardware its dependent add as well, and
// flopsMul flops (each is one lane wide, or charges no flops).
func (g *shared) settle(f follower) {
	acc := &f.t.cost
	for i := range f.ins {
		bi := &f.ins[i]
		n := g.spanN[g.in[i]]
		switch bi.op {
		case vm.OpNop:
		case vm.OpLoop, vm.OpParLoop:
			acc.n[bi.ch] += g.ev[i]
			acc.n[bi.chB] += g.ev[i]
		case vm.OpWhile:
			acc.n[bi.ch] += g.spanN[2*i+1]
		default:
			acc.n[bi.ch] += n
			if bi.hasChB {
				acc.n[bi.chB] += n
			}
			acc.flops += n * uint64(bi.flopsMul)
		}
	}
}

// release detaches the followers' hierarchies and returns every engine's
// thread contexts to its pool.
func (g *shared) release() {
	for _, e := range g.engines {
		e.threads[0].hier.Detach()
		e.releaseThreads()
	}
}
