package exec

// Shared serial runs. A serial program whose functional run does not
// depend on the SIMD width computes the same registers, arrays, branch
// outcomes and addresses on every machine; only the cost model differs.
// RunShared runs such a program once and charges every machine's cost
// model in lockstep with it, so a batch measuring one kernel on several
// machines dispatches and computes each instruction once instead of once
// per machine.
//
// What is shared and what is not:
//
//   - The first machine (the leader) runs exactly as Run would run it: its
//     thread context holds the registers, mutates the arrays and executes
//     every instruction on the solo handlers, charging its own cost. Only
//     loop and if, whose bodies must recurse into the lockstep dispatch,
//     are rebound, to handlers that charge the leader as loopRange and
//     branch do.
//   - Every other machine (a follower) keeps its own engine: its own bound
//     program, thread context, cache hierarchy, line cursors, charge
//     counters, stall sum and segment flush. Charges are counted once per
//     instruction index (stepInstr.n, stepInstr.ev) and expanded into each
//     follower's row counters before its flushSegment (settle), which is
//     exact for the reason costAcc.fold is: every occupancy is a multiple
//     of 1/4 cycle. Stalls are not such multiples, so each follower adds
//     its own carried, branch-miss and cache-miss stalls at the
//     instruction that incurs them, in dynamic order, through the helpers
//     the solo handlers use (addCarried, addMissStall, touchCursor).
//
// Each machine therefore sees exactly the events a solo run gives it, and
// its Result is bit-identical to Run's (TestRunSharedMatchesRun).

import (
	"errors"

	"ninjagap/internal/machine"
	"ninjagap/internal/vm"
)

// ErrNotShared is returned, with nothing run, by RunShared when the run
// cannot be shared: the program is not LaneIndependent, the options ask
// for other than one thread, or a machine fails validation. The caller
// then runs each machine alone.
var ErrNotShared = errors.New("exec: run cannot be shared across machines")

// LaneIndependent reports whether prog's functional run is the same at
// every SIMD width, so one run can drive several machines' cost models
// (RunShared). That holds when every instruction is scalar, or is one of
// nop, const, iota, broadcast and copy (which write all vm.MaxLanes lanes
// at any width); loops are not vector loops; and if reads lane 0. while
// and ifmask build their mask over the machine's lane count, a gather's
// or scatter's charge reads the live mask, and shuffles, horizontal
// reductions and mask moves read lanes by width, so any of them refuses.
func LaneIndependent(prog *vm.Prog) bool { return laneIndependent(prog.Body) }

func laneIndependent(body []vm.Instr) bool {
	for i := range body {
		in := &body[i]
		switch in.Op {
		case vm.OpNop, vm.OpConst, vm.OpIota, vm.OpBroadcast, vm.OpCopy, vm.OpIf:
		case vm.OpLoop, vm.OpParLoop:
			if in.Vec {
				return false
			}
		case vm.OpWhile, vm.OpIfMask, vm.OpGather, vm.OpScatter, vm.OpShuffle,
			vm.OpMaskMov, vm.OpHAdd, vm.OpHMin, vm.OpHMax:
			return false
		default:
			if !in.Scalar || in.Op < 0 || int(in.Op) >= vm.NumOps {
				return false
			}
		}
		if !laneIndependent(in.Body) || !laneIndependent(in.Else) {
			return false
		}
	}
	return true
}

// RunShared runs a lane-independent program once, on one thread, and
// simulates its cost on every machine in ms in lockstep. results[k] is
// bit-identical to what Run(prog, arrays, ms[k], opt) returns on fresh
// arrays, and the arrays end as any one of those runs leaves them. A
// functional error (an out-of-range index) fails every machine alike and
// is returned as is. When the run cannot be shared it returns
// ErrNotShared and leaves the arrays untouched.
func RunShared(prog *vm.Prog, arrays map[string]*vm.Array, ms []*machine.Machine, opt Options) ([]*Result, error) {
	if opt.Threads != 1 || !LaneIndependent(prog) {
		return nil, ErrNotShared
	}
	for _, m := range ms {
		if m.Validate() != nil {
			return nil, ErrNotShared
		}
	}
	if len(ms) == 0 {
		return nil, nil
	}
	g := &lockstep{}
	defer g.release()
	for _, m := range ms {
		e, err := newEngine(prog, arrays, m, opt)
		if err != nil {
			return nil, err
		}
		g.engines = append(g.engines, e)
	}
	g.bind()

	lead := g.engines[0]
	g.exec(lead.bp.top)
	if err := g.lead.err; err != nil {
		return nil, err
	}
	out := make([]*Result, len(g.engines))
	for k, e := range g.engines {
		if k > 0 {
			g.settle(e)
		}
		e.flushSegment(e.threads, false)
		e.finish()
		r := e.res
		out[k] = &r
	}
	return out, nil
}

// lockstep is one shared run: the leader's engine executes, the
// followers' engines are charged.
type lockstep struct {
	engines   []*engine // the leader first, then the followers
	lead      *threadCtx
	followers []follower
	ins       []stepInstr // indexed by arena index
}

// follower is one follower machine's thread and bound program.
type follower struct {
	t   *threadCtx
	ins []bInstr
}

// stepInstr is the machine-independent count of one instruction's charge
// events, and the per-event work its followers owe.
type stepInstr struct {
	n      uint64 // dispatches
	ev     uint64 // charged iterations (loops)
	follow uint8  // followNone, followCarried, followLoad or followStore
}

// What a follower does at each dispatch of an instruction, besides the
// charges settle adds: the stalls and cache touches a solo run would
// incur there.
const (
	followNone    = iota
	followCarried // some follower adds a loop-carried stall
	followLoad    // scalar load: carried stall and a read through the cursor
	followStore   // scalar store: a write through the cursor
)

// bind rebinds the leader's loops and ifs to the lockstep handlers and
// marks the instructions at which followers owe per-event work.
func (g *lockstep) bind() {
	lead := g.engines[0]
	g.lead = lead.threads[0]
	for _, e := range g.engines[1:] {
		g.followers = append(g.followers, follower{t: e.threads[0], ins: e.bp.instrs})
	}
	g.ins = make([]stepInstr, len(lead.bp.instrs))
	loopFn := func(_ *threadCtx, bi *bInstr) { g.loop(bi) }
	ifFn := func(_ *threadCtx, bi *bInstr) { g.branch(bi) }
	for i := range lead.bp.instrs {
		bi := &lead.bp.instrs[i]
		si := &g.ins[i]
		switch bi.op {
		case vm.OpLoop, vm.OpParLoop:
			bi.fn = loopFn
		case vm.OpIf:
			bi.fn = ifFn
		case vm.OpLoad:
			si.follow = followLoad
		case vm.OpStore:
			si.follow = followStore
		default:
			for _, f := range g.followers {
				if f.ins[i].carriedStall != 0 {
					si.follow = followCarried
				}
			}
		}
	}
}

// exec is threadCtx.exec for a shared run: each instruction is counted,
// the followers do their per-event work, and the leader runs it.
// Followers go first because a load may overwrite its own base register.
func (g *lockstep) exec(s vm.Span) {
	t := g.lead
	ins := t.e.bp.instrs
	for i := s.Start; i < s.End; i++ {
		if t.err != nil {
			return
		}
		si := &g.ins[i]
		si.n++
		bi := &ins[i]
		if si.follow != followNone {
			g.follow(bi, si.follow)
		}
		bi.fn(t, bi)
	}
}

// follow does every follower's per-event work at the leader's bound
// instruction lb, in follower order, reading addresses from the leader's
// registers (register offsets do not depend on the machine).
func (g *lockstep) follow(lb *bInstr, kind uint8) {
	i := lb.idx
	switch kind {
	case followCarried:
		for _, f := range g.followers {
			f.t.addCarried(&f.ins[i])
		}
	case followLoad:
		base := uint64(int64(g.lead.reg(lb.a)[0]))
		for _, f := range g.followers {
			bi := &f.ins[i]
			f.t.addCarried(bi)
			f.t.touchCursor(bi, f.t.e.lineOf(bi.arr.Base+base*bi.eb), false, bi.mlp)
		}
	case followStore:
		base := uint64(int64(g.lead.reg(lb.b)[0]))
		for _, f := range g.followers {
			bi := &f.ins[i]
			f.t.touchCursor(bi, f.t.e.lineOf(bi.arr.Base+base*bi.eb), true, bi.mlp)
		}
	}
}

// loop is loopRange's sequential path over the whole trip, dispatching its
// body in lockstep. The leader is charged per charged iteration as in
// loopRange; the followers' charges are counted in ev.
func (g *lockstep) loop(bi *bInstr) {
	t := g.lead
	si := &g.ins[bi.idx]
	lo := bi.lo
	hi := lo + t.tripCount(bi)
	unroll := int64(bi.unroll)
	for i := lo; i < hi; i++ {
		if t.err != nil {
			return
		}
		t.setInduction(bi.dst, float64(i))
		if (i-lo)%unroll == 0 {
			t.chargeLoopIter(bi)
			si.ev++
		}
		g.exec(bi.body)
	}
}

// branch is threadCtx.branch in lockstep: every machine pays its own
// miss stall, the leader's lane 0 picks the side.
func (g *lockstep) branch(bi *bInstr) {
	t := g.lead
	t.cost.add(bi.ch)
	t.addMissStall(bi)
	for _, f := range g.followers {
		f.t.addMissStall(&f.ins[bi.idx])
	}
	if t.regs[bi.a] != 0 {
		g.exec(bi.body)
	} else {
		g.exec(bi.els)
	}
}

// settle adds the counted charges of a shared run to follower e's row
// counters and flops, as its solo handlers would have charged them one
// event at a time: a loop charges its induction update and back-edge per
// charged iteration; every other instruction LaneIndependent admits
// charges its primary row per dispatch, an FMA without FMA hardware its
// dependent add as well, and flopsMul flops (each is one lane wide, or
// charges no flops).
func (g *lockstep) settle(e *engine) {
	acc := &e.threads[0].cost
	for i := range g.ins {
		si := &g.ins[i]
		bi := &e.bp.instrs[i]
		switch bi.op {
		case vm.OpNop:
		case vm.OpLoop, vm.OpParLoop:
			acc.n[bi.ch] += si.ev
			acc.n[bi.chB] += si.ev
		default:
			acc.n[bi.ch] += si.n
			if bi.hasChB {
				acc.n[bi.chB] += si.n
			}
			acc.flops += si.n * uint64(bi.flopsMul)
		}
	}
}

// release returns every engine's thread contexts to its pool.
func (g *lockstep) release() {
	for _, e := range g.engines {
		e.releaseThreads()
	}
}
