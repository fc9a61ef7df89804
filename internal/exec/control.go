package exec

import (
	"fmt"

	"ninjagap/internal/vm"
)

// tripCount resolves a loop's trip count.
func (t *threadCtx) tripCount(bi *bInstr) int64 {
	if bi.countReg >= 0 {
		return int64(t.regs[bi.countReg])
	}
	return bi.count
}

// setInduction writes the scalar induction value into every lane of the
// destination (given as a register-file offset) so both scalar address math
// and broadcast-style vector uses see it.
func (t *threadCtx) setInduction(off int, v float64) {
	d := t.reg(off)
	for l := 0; l < vm.MaxLanes; l++ {
		d[l] = v
	}
}

// loop runs a (sequential view of a) loop over [lo, lo+n).
func (t *threadCtx) loop(bi *bInstr) {
	n := t.tripCount(bi)
	t.loopRange(bi, bi.lo, bi.lo+n)
}

// loopRange runs the iterations [lo, hi) of a loop instruction; the engine
// calls it directly with per-thread subranges for parallel loops.
func (t *threadCtx) loopRange(bi *bInstr, lo, hi int64) {
	unroll := int64(bi.unroll)
	if bi.vec {
		t.vecLoopRange(bi, lo, hi, bi.unroll)
		return
	}
	for i := lo; i < hi; i++ {
		if t.err != nil {
			return
		}
		t.setInduction(bi.dst, float64(i))
		if (i-lo)%unroll == 0 {
			t.chargeLoopIter(bi)
		}
		t.exec(bi.body)
	}
}

// chargeLoopIter charges one charged iteration of a loop: the induction
// update and the (predicted) back-edge. A loop with Unroll u is charged
// every u-th iteration.
func (t *threadCtx) chargeLoopIter(bi *bInstr) {
	t.cost.add(bi.ch)
	t.cost.add(bi.chB)
}

// addMissStall adds a branch's expected misprediction stall, skipping the
// add when it is 0 (bit-identical, as in addCarried).
func (t *threadCtx) addMissStall(bi *bInstr) {
	if bi.missStall != 0 {
		t.cost.stall += bi.missStall
	}
}

// vecLoopRange runs a vector loop: induction lane l = base + l, stepping by
// W, with a masked tail.
func (t *threadCtx) vecLoopRange(bi *bInstr, lo, hi int64, unroll int) {
	W := int64(t.e.W)
	d := t.reg(bi.dst)
	trip := int64(0)
	for base := lo; base < hi; base += W {
		if t.err != nil {
			return
		}
		for l := int64(0); l < int64(vm.MaxLanes); l++ {
			d[l] = float64(base + l)
		}
		if trip%int64(unroll) == 0 {
			t.chargeLoopIter(bi)
		}
		trip++
		if base+W <= hi {
			t.exec(bi.body)
			continue
		}
		// Tail: mask off lanes at or beyond hi.
		var m uint32
		for l := int64(0); l < W && base+l < hi; l++ {
			m |= 1 << uint(l)
		}
		t.pushMask(m & t.mask)
		t.exec(bi.body)
		t.popMask()
	}
}

// while repeats the body while any active lane of the condition register is
// non-zero. Divergent lanes are masked off but still occupy the SIMD unit,
// which is exactly the divergence cost the paper discusses.
func (t *threadCtx) while(bi *bInstr) {
	for {
		m := t.whileMask(bi)
		if m == 0 {
			return
		}
		t.cost.add(bi.ch)
		t.addMissStall(bi)
		t.pushMask(m)
		t.exec(bi.body)
		t.popMask()
	}
}

// whileMask starts one iteration of a while: it returns the iteration's
// mask, or 0 when the loop is done, the run has failed, or the runaway
// guard trips (which fails the run).
func (t *threadCtx) whileMask(bi *bInstr) uint32 {
	if t.err != nil {
		return 0
	}
	m := t.condMask(bi)
	if m == 0 {
		return 0
	}
	t.whileIter++
	if t.whileIter > maxWhileIters {
		t.fail(fmt.Errorf("exec: prog %s: while loop exceeded %d iterations", t.e.prog.Name, uint64(maxWhileIters)))
		return 0
	}
	return m
}

// condMask returns the active lanes, of the machine's W, whose condition
// register lane is non-zero.
func (t *threadCtx) condMask(bi *bInstr) uint32 {
	W := t.e.W
	cond := t.reg(bi.a)
	var m uint32
	for l := 0; l < W; l++ {
		if cond[l] != 0 {
			m |= 1 << uint(l)
		}
	}
	return m & t.mask
}

// branch executes a scalar if/else on lane 0 of the condition.
func (t *threadCtx) branch(bi *bInstr) {
	t.cost.add(bi.ch)
	t.addMissStall(bi)
	if t.regs[bi.a] != 0 {
		t.exec(bi.body)
	} else {
		t.exec(bi.els)
	}
}

// ifMask executes the body under the refined mask; if no lane is active the
// body is skipped entirely (the "if none, jump over" idiom of real masked
// SIMD code).
func (t *threadCtx) ifMask(bi *bInstr) {
	m := t.condMask(bi)
	t.cost.add(bi.ch)
	if m == 0 {
		return
	}
	t.pushMask(m)
	t.exec(bi.body)
	t.popMask()
}
