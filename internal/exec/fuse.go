package exec

// Superinstruction fusion: a bind-time peephole that pairs adjacent,
// dependent instructions — the dominant dynamic pairs of the irregular
// kernels (load feeding arithmetic, arithmetic feeding a store, a compare
// feeding its mask push, address arithmetic feeding a gather) — into one
// dispatched superinstruction. The fused handler runs the two component
// handlers back to back in program order with the interpreter's own error
// check between them, so every charge, stall and statistic lands in exactly
// the order the unfused pair produces: cost accounting is preserved by
// sequential composition, not by re-deriving it. The peephole rejects any
// pair where that composition argument does not hold — a pair straddling a
// block boundary (the second instruction would also be reachable as a block
// entry, where it must dispatch alone) or a pair whose first instruction is
// control flow.

import (
	"sync/atomic"

	"ninjagap/internal/vm"
)

// fusedInstrs counts dynamic instructions executed through fused handlers,
// process-wide. It exists for the differential tests and the benchmark's
// fused fraction: a fusion bit-identity check whose programs silently never
// fuse proves nothing.
var fusedInstrs atomic.Uint64

// FusedInstrs returns the process-wide count of dynamic instructions
// executed through fused superinstruction handlers. Monotone; callers
// compute per-run coverage from deltas.
func FusedInstrs() uint64 { return fusedInstrs.Load() }

// ReplayedInstrs always returns 0. The engine interprets every
// instruction; the function remains only because the benchmark module
// still reports a replayed-instruction fraction from it.
func ReplayedInstrs() uint64 { return 0 }

// hFused executes a fused pair: the first instruction's own handler, the
// inter-instruction error check the exec loop would have performed, then
// the successor's handler.
func hFused(t *threadCtx, bi *bInstr) {
	bi.fnA(t, bi)
	if t.err != nil {
		return
	}
	t.nFused += 2
	n := bi.next
	n.fn(t, n)
}

// fuse runs the peephole over a bound program. Block spans from the flat
// program mark where fusion must not cross: the first instruction of any
// body/else block is a dispatch entry point (exec starts there), so the
// instruction before it cannot absorb it.
func (e *engine) fuse(bp *boundProg, fp *vm.FlatProg) {
	n := len(bp.instrs)
	if n < 2 {
		return
	}
	entry := make([]bool, n+1)
	mark := func(s vm.Span) {
		if s.Start < s.End {
			entry[s.Start] = true
		}
	}
	mark(bp.top)
	for i := range fp.Instrs {
		mark(fp.Instrs[i].BodySpan)
		mark(fp.Instrs[i].ElseSpan)
	}
	for i := 0; i+1 < n; i++ {
		if entry[i+1] {
			continue
		}
		bi, nx := &bp.instrs[i], &bp.instrs[i+1]
		if !fusable(bi, nx) {
			continue
		}
		bi.fnA = bi.fn
		bi.next = nx
		bi.fn = hFused
		bi.fuse = 1
		i++ // the absorbed instruction cannot start another pair
	}
}

// fusable reports whether the adjacent pair (a, b) is one of the profiled
// dominant shapes and b actually consumes a's result. Control flow never
// leads a pair, and only the compare→mask-push shape ends one with control
// flow. The shapes: a load or gather feeding arithmetic (the descent loads
// of the irregular kernels), arithmetic feeding a store, a gather's index
// vector (index-scale+gather), more arithmetic or a blend (the branchless
// select chains of the lockstep tree descent), and a compare feeding its
// mask push or blend.
func fusable(a, b *bInstr) bool {
	switch a.op {
	case vm.OpLoad, vm.OpGather:
		return consumesCompute(a, b)
	case vm.OpAdd, vm.OpSub, vm.OpMul, vm.OpMin, vm.OpMax, vm.OpFMA:
		switch b.op {
		case vm.OpStore:
			return b.a == a.dst // store value operand
		case vm.OpGather:
			return b.a == a.dst // index vector
		}
		return consumesCompute(a, b)
	case vm.OpCmpLT, vm.OpCmpLE, vm.OpCmpGT, vm.OpCmpGE, vm.OpCmpEQ, vm.OpCmpNE:
		if b.op == vm.OpIfMask {
			return b.a == a.dst
		}
		return consumesCompute(a, b)
	}
	return false
}

// consumesCompute reports whether b is a pure compute instruction (no
// memory, no control flow, no mask-stack effect) that reads a's result.
func consumesCompute(a, b *bInstr) bool {
	switch b.op {
	case vm.OpAdd, vm.OpSub, vm.OpMul, vm.OpDiv, vm.OpMin, vm.OpMax,
		vm.OpCmpLT, vm.OpCmpLE, vm.OpCmpGT, vm.OpCmpGE, vm.OpCmpEQ, vm.OpCmpNE:
		return b.a == a.dst || b.b == a.dst
	case vm.OpFMA, vm.OpBlend:
		return b.a == a.dst || b.b == a.dst || b.c == a.dst
	}
	return false
}
