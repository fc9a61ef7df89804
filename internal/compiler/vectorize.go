package compiler

import (
	"fmt"
	"sort"

	"ninjagap/internal/lang"
	"ninjagap/internal/vm"
)

// sortedNames returns a map's keys in sorted order, for the loops whose
// map order would otherwise reach the emitted program or a report.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// forLoop compiles a For statement, deciding whether to parallelize and/or
// vectorize it, and records the decision in the report.
func (c *cg) forLoop(st lang.For, topLevel bool) error {
	parallel := st.Parallel && c.opt.Parallel && topLevel
	lr := &LoopReport{Var: st.Var, Depth: c.loopDepth, Parallelized: parallel}
	c.report.Loops = append(c.report.Loops, lr)

	vectorize := false
	if c.opt.Vectorize {
		ok, reason := c.legality(st)
		vectorize = ok
		lr.Reason = reason
	} else {
		lr.Reason = "vectorization disabled"
	}
	lr.Vectorized = vectorize

	prev := c.curLoop
	c.curLoop = lr
	defer func() { c.curLoop = prev }()

	if vectorize {
		return c.compileVectorLoop(st, parallel, lr)
	}
	return c.compileScalarLoop(st, parallel)
}

// bounds evaluates loop bounds. Static bounds return (lo, count, -1, -1);
// dynamic bounds return registers for the count and the lower bound.
func (c *cg) bounds(st lang.For) (lo int64, count int64, countReg, loReg int, err error) {
	lc, okLo := lang.EvalConst(st.Lo)
	hc, okHi := lang.EvalConst(st.Hi)
	if okLo && okHi {
		n := int64(hc) - int64(lc)
		if n < 0 {
			n = 0
		}
		return int64(lc), n, -1, -1, nil
	}
	loR, _, err := c.eval(st.Lo)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	hiR, _, err := c.eval(st.Hi)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	cnt := c.b.Scalar2(vm.OpSub, hiR, loR)
	return 0, 0, cnt, loR, nil
}

// readBeforeWrite finds locals that are read before (or while) being
// assigned within one iteration of body — the loop-carried scalars.
func readBeforeWrite(body []lang.Stmt) map[string]bool {
	carried := map[string]bool{}
	assigned := map[string]bool{}
	var walkExpr func(e lang.Expr)
	walkExpr = func(e lang.Expr) {
		used := map[string]bool{}
		lang.VarsUsed(e, used)
		for name := range used {
			if !assigned[name] {
				// Only meaningful if the var is assigned somewhere in the
				// body; the caller filters.
				carried[name] = true
			}
		}
	}
	var walk func(stmts []lang.Stmt)
	walk = func(stmts []lang.Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case lang.Let:
				walkExpr(st.X)
				assigned[st.Name] = true
			case lang.Assign:
				walkExpr(st.LHS.Idx)
				walkExpr(st.X)
			case lang.If:
				walkExpr(st.Cond)
				// Conservative: an assignment under a condition may not
				// execute, so reads after it may still see the old value.
				walk(st.Then)
				walk(st.Else)
			case lang.While:
				walkExpr(st.Cond)
				walk(st.Body)
			case lang.For:
				walkExpr(st.Lo)
				walkExpr(st.Hi)
				// The induction variable is defined by the loop itself:
				// reads of it inside the body are not carried dependences.
				wasAssigned := assigned[st.Var]
				assigned[st.Var] = true
				walk(st.Body)
				assigned[st.Var] = wasAssigned
			}
		}
	}
	walk(body)
	// Keep only locals actually assigned in the body.
	allAssigned := map[string]bool{}
	lang.AssignedVars(body, allAssigned)
	for name := range carried {
		if !allAssigned[name] {
			delete(carried, name)
		}
	}
	return carried
}

// reductionLets finds carried locals whose every assignment in body is a
// recognized reduction update, returning their combine ops.
func reductionLets(body []lang.Stmt, carried map[string]bool) map[string]vm.Op {
	counts := map[string]int{}
	ops := map[string]vm.Op{}
	bad := map[string]bool{}
	var walk func(stmts []lang.Stmt)
	walk = func(stmts []lang.Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case lang.Let:
				if !carried[st.Name] {
					continue
				}
				counts[st.Name]++
				op, ok := reductionOp(st)
				if !ok {
					bad[st.Name] = true
					continue
				}
				if prev, seen := ops[st.Name]; seen && prev != op {
					bad[st.Name] = true
					continue
				}
				ops[st.Name] = op
			case lang.If:
				walk(st.Then)
				walk(st.Else)
			case lang.While:
				walk(st.Body)
			case lang.For:
				walk(st.Body)
			}
		}
	}
	walk(body)
	for name := range bad {
		delete(ops, name)
	}
	// A true reduction is write-only outside its own update: if the
	// running value is read by any other expression (a prefix-sum /
	// recurrence pattern, like LIBOR's drift accumulation), the loop is
	// order-dependent and must not be treated as a reduction.
	for name := range ops {
		if reads := countReadsOutsideUpdate(body, name); reads > 0 {
			delete(ops, name)
		}
	}
	return ops
}

// countReadsOutsideUpdate counts reads of name in body excluding its own
// reduction-update statements.
func countReadsOutsideUpdate(body []lang.Stmt, name string) int {
	reads := 0
	countExpr := func(e lang.Expr) {
		used := map[string]bool{}
		lang.VarsUsed(e, used)
		if used[name] {
			reads++
		}
	}
	var walk func(stmts []lang.Stmt)
	walk = func(stmts []lang.Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case lang.Let:
				if st.Name == name {
					if _, ok := reductionOp(st); ok {
						continue // the update itself
					}
				}
				countExpr(st.X)
			case lang.Assign:
				countExpr(st.LHS.Idx)
				countExpr(st.X)
			case lang.If:
				countExpr(st.Cond)
				walk(st.Then)
				walk(st.Else)
			case lang.While:
				countExpr(st.Cond)
				walk(st.Body)
			case lang.For:
				countExpr(st.Lo)
				countExpr(st.Hi)
				walk(st.Body)
			}
		}
	}
	walk(body)
	return reads
}

// reductionOp matches x = x + e, x = x - e, x = min/max(x, e).
func reductionOp(st lang.Let) (vm.Op, bool) {
	switch x := st.X.(type) {
	case lang.Bin:
		if x.Op == lang.Add {
			if isVarNamed(x.L, st.Name) || isVarNamed(x.R, st.Name) {
				return vm.OpAdd, true
			}
		}
		if x.Op == lang.Sub && isVarNamed(x.L, st.Name) {
			return vm.OpAdd, true
		}
	case lang.Call:
		if x.Fn == "min" || x.Fn == "max" {
			if isVarNamed(x.Args[0], st.Name) || isVarNamed(x.Args[1], st.Name) {
				if x.Fn == "min" {
					return vm.OpMin, true
				}
				return vm.OpMax, true
			}
		}
	}
	return vm.OpNop, false
}

func isVarNamed(e lang.Expr, name string) bool {
	v, ok := e.(lang.Var)
	return ok && v.Name == name
}

// containsFor reports whether a body has a nested counted loop.
func containsFor(body []lang.Stmt) bool {
	for _, s := range body {
		switch st := s.(type) {
		case lang.For:
			return true
		case lang.If:
			if containsFor(st.Then) || containsFor(st.Else) {
				return true
			}
		case lang.While:
			if containsFor(st.Body) {
				return true
			}
		}
	}
	return false
}

func containsWhile(body []lang.Stmt) bool {
	for _, s := range body {
		switch st := s.(type) {
		case lang.While:
			return true
		case lang.If:
			if containsWhile(st.Then) || containsWhile(st.Else) {
				return true
			}
		}
	}
	return false
}

// collectAccesses gathers every array access in a body, split into reads
// and writes, with their flat index expressions.
type accessInfo struct {
	arr  *lang.Array
	flat lang.Expr
}

func collectAccesses(body []lang.Stmt) (reads, writes []accessInfo) {
	var walkExpr func(e lang.Expr)
	walkExpr = func(e lang.Expr) {
		switch x := e.(type) {
		case lang.Access:
			reads = append(reads, accessInfo{arr: x.A, flat: flatIndexExpr(x)})
			walkExpr(x.Idx)
		case lang.Bin:
			walkExpr(x.L)
			walkExpr(x.R)
		case lang.Call:
			for _, a := range x.Args {
				walkExpr(a)
			}
		}
	}
	var walk func(stmts []lang.Stmt)
	walk = func(stmts []lang.Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case lang.Let:
				walkExpr(st.X)
			case lang.Assign:
				writes = append(writes, accessInfo{arr: st.LHS.A, flat: flatIndexExpr(st.LHS)})
				walkExpr(st.LHS.Idx)
				walkExpr(st.X)
			case lang.If:
				walkExpr(st.Cond)
				walk(st.Then)
				walk(st.Else)
			case lang.While:
				walkExpr(st.Cond)
				walk(st.Body)
			case lang.For:
				walkExpr(st.Lo)
				walkExpr(st.Hi)
				walk(st.Body)
			}
		}
	}
	walk(body)
	return reads, writes
}

// maxAliasCheckArrays is the largest number of distinct arrays for which
// the vectorizer inserts a runtime aliasing check and multiversions the
// loop instead of giving up, like production compilers' multiversioning
// limits.
const maxAliasCheckArrays = 3

// legality decides whether a loop can be auto-vectorized and why not,
// modeling a traditional vectorizing compiler's conservative analysis plus
// the programmer-assertion escape hatches.
func (c *cg) legality(st lang.For) (bool, string) {
	simd := st.Simd && c.opt.HonorPragmas
	ivdep := (st.Ivdep && c.opt.HonorPragmas) || simd

	if containsFor(st.Body) {
		return false, "not innermost: contains a nested loop"
	}
	if containsWhile(st.Body) && !simd {
		return false, "irregular control flow: inner while loop (add #pragma simd after restructuring)"
	}

	// Build the affine environment to classify accesses.
	env := c.buildAffEnv(st)

	// Loop-carried scalar dependences.
	carried := readBeforeWrite(st.Body)
	delete(carried, st.Var)
	reds := reductionLets(st.Body, carried)
	for _, name := range sortedNames(carried) {
		if _, ok := reds[name]; !ok && !simd {
			return false, fmt.Sprintf("loop-carried scalar dependence on %q", name)
		}
	}

	if simd {
		return true, "vectorized by #pragma simd (programmer-asserted)"
	}

	reads, writes := collectAccesses(st.Body)

	// Same-array dependence analysis.
	for _, w := range writes {
		wc, wok := c.affineIn(w.flat, st.Var, env)
		for _, r := range reads {
			if r.arr != w.arr {
				continue
			}
			rc, rok := c.affineIn(r.flat, st.Var, env)
			if !wok || !rok {
				return false, fmt.Sprintf("unprovable dependence on %s: non-affine subscript (add #pragma ivdep)", w.arr.Name)
			}
			if wc != rc || lang.ExprString(w.flat) != lang.ExprString(r.flat) {
				return false, fmt.Sprintf("assumed loop-carried dependence on %s (add #pragma ivdep)", w.arr.Name)
			}
		}
		if !wok {
			// Scatter with no same-array read is safe if indices are
			// distinct, which the compiler cannot prove.
			if !ivdep {
				return false, fmt.Sprintf("scatter to %s with unprovable distinctness (add #pragma ivdep)", w.arr.Name)
			}
		}
		_ = wc
	}

	// Cross-array aliasing.
	if !ivdep {
		distinct := map[*lang.Array]bool{}
		unresolved := 0
		for _, w := range writes {
			for _, r := range reads {
				if r.arr == w.arr || w.arr.Restrict || r.arr.Restrict {
					continue
				}
				unresolved++
				distinct[w.arr] = true
				distinct[r.arr] = true
			}
		}
		if unresolved > 0 {
			if len(distinct) > maxAliasCheckArrays {
				return false, fmt.Sprintf("possible aliasing among %d arrays exceeds multiversioning limit (add restrict)", len(distinct))
			}
			return true, "vectorized with runtime aliasing check (multiversioned)"
		}
	}
	return true, "vectorized"
}

// buildAffEnv computes affine coefficients of locals defined in the loop
// body w.r.t. the loop variable. Locals assigned more than once, under
// conditions, or from non-affine expressions are marked non-affine.
func (c *cg) buildAffEnv(st lang.For) map[string]affVal {
	env := map[string]affVal{st.Var: {coeff: 1, ok: true}}
	// Arrays written in the loop: loads from them are not invariant.
	use := lang.NewArrayUse()
	lang.CollectArrayUse(st.Body, use)
	writes := use.Writes

	assignCounts := map[string]int{}
	var count func(stmts []lang.Stmt, conditional bool)
	count = func(stmts []lang.Stmt, conditional bool) {
		for _, s := range stmts {
			switch x := s.(type) {
			case lang.Let:
				assignCounts[x.Name]++
				if conditional {
					assignCounts[x.Name]++ // force non-affine
				}
			case lang.If:
				count(x.Then, true)
				count(x.Else, true)
			case lang.While:
				count(x.Body, true)
			case lang.For:
				count(x.Body, true)
			}
		}
	}
	count(st.Body, false)

	for _, s := range st.Body {
		if let, ok := s.(lang.Let); ok {
			if assignCounts[let.Name] > 1 {
				env[let.Name] = affVal{ok: false}
				continue
			}
			coeff, ok2 := affineExpr(let.X, st.Var, env, writes)
			env[let.Name] = affVal{coeff: coeff, ok: ok2}
		}
	}
	return env
}

type affVal struct {
	coeff float64
	ok    bool
}

// affineIn computes the coefficient of loopVar in e, if e is affine.
func (c *cg) affineIn(e lang.Expr, loopVar string, env map[string]affVal) (float64, bool) {
	use := lang.NewArrayUse()
	// writes set comes from env construction; approximate with none here —
	// callers that care pass through affineExpr with the env already built.
	return affineExpr(e, loopVar, env, use.Writes)
}

// affine is the codegen-time version using the current vector loop context.
func (c *cg) affine(e lang.Expr) (float64, bool) {
	if c.vecCtx == nil {
		return 0, false
	}
	return affineExpr(e, c.vecCtx.loopVar, c.vecCtx.affEnv, c.vecCtx.loopWrites)
}

func affineExpr(e lang.Expr, loopVar string, env map[string]affVal, writes map[*lang.Array]bool) (float64, bool) {
	switch x := e.(type) {
	case lang.Num:
		return 0, true
	case lang.Var:
		if x.Name == loopVar {
			return 1, true
		}
		if av, ok := env[x.Name]; ok {
			return av.coeff, av.ok
		}
		return 0, true // defined outside the loop: invariant
	case lang.Bin:
		switch x.Op {
		case lang.Add, lang.Sub:
			cl, okl := affineExpr(x.L, loopVar, env, writes)
			cr, okr := affineExpr(x.R, loopVar, env, writes)
			if !okl || !okr {
				return 0, false
			}
			if x.Op == lang.Add {
				return cl + cr, true
			}
			return cl - cr, true
		case lang.Mul:
			cl, okl := affineExpr(x.L, loopVar, env, writes)
			cr, okr := affineExpr(x.R, loopVar, env, writes)
			if !okl || !okr {
				return 0, false
			}
			switch {
			case cl == 0 && cr == 0:
				return 0, true
			case cr == 0:
				if k, ok := lang.EvalConst(x.R); ok {
					return cl * k, true
				}
				return 0, false
			case cl == 0:
				if k, ok := lang.EvalConst(x.L); ok {
					return cr * k, true
				}
				return 0, false
			default:
				return 0, false
			}
		case lang.Div:
			cl, okl := affineExpr(x.L, loopVar, env, writes)
			cr, okr := affineExpr(x.R, loopVar, env, writes)
			if okl && okr && cl == 0 && cr == 0 {
				return 0, true
			}
			return 0, false
		default:
			// Comparisons/logic are not index arithmetic.
			cl, okl := affineExpr(x.L, loopVar, env, writes)
			cr, okr := affineExpr(x.R, loopVar, env, writes)
			if okl && okr && cl == 0 && cr == 0 {
				return 0, true
			}
			return 0, false
		}
	case lang.Call:
		for _, a := range x.Args {
			ca, ok := affineExpr(a, loopVar, env, writes)
			if !ok || ca != 0 {
				return 0, false
			}
		}
		return 0, true
	case lang.Access:
		ci, ok := affineExpr(x.Idx, loopVar, env, writes)
		if ok && ci == 0 && !writes[x.A] {
			return 0, true // invariant load
		}
		return 0, false
	default:
		return 0, false
	}
}

// compileScalarLoop emits a scalar (possibly parallel) loop.
func (c *cg) compileScalarLoop(st lang.For, parallel bool) error {
	lo, count, countReg, loReg, err := c.bounds(st)
	if err != nil {
		return err
	}
	carried := readBeforeWrite(st.Body)
	delete(carried, st.Var)

	iv := c.b.OpenLoop(parallel, false, lo, count, countReg)
	if st.Unroll > 1 && c.opt.HonorPragmas {
		c.b.SetUnroll(st.Unroll)
	}
	if parallel && st.Chunk > 0 {
		c.b.SetChunk(st.Chunk)
	}
	varReg := iv
	if loReg >= 0 {
		varReg = c.b.Scalar2(vm.OpAdd, iv, loReg)
	}
	oldVar := c.vars[st.Var]
	c.vars[st.Var] = &varInfo{reg: varReg}

	// Parallel reductions on pre-existing scalars.
	if parallel {
		if err := c.declareParallelReduce(st.Body, carried, nil); err != nil {
			return err
		}
	}

	prevCarried := c.carried
	merged := map[string]bool{}
	for k, v := range prevCarried {
		merged[k] = v
	}
	for k := range carried {
		merged[k] = true
	}
	c.carried = merged
	c.loopDepth++
	err = c.stmts(st.Body, false)
	c.loopDepth--
	c.carried = prevCarried
	c.b.End()
	c.vars[st.Var] = oldVar
	return err
}

// declareParallelReduce registers cross-thread reductions on the innermost
// open parallel loop for carried scalars defined before the loop. vaccOf
// maps a name to its vector accumulator when the loop is also vectorized.
func (c *cg) declareParallelReduce(body []lang.Stmt, carried map[string]bool, vaccOf map[string]*reduction) error {
	reds := reductionLets(body, carried)
	var op vm.Op = vm.OpNop
	var regs []int
	for _, name := range sortedNames(carried) {
		vi := c.vars[name]
		if vi == nil {
			continue // defined inside the loop body: thread-private
		}
		r, ok := reds[name]
		if !ok {
			return fmt.Errorf("compiler: kernel %s: cannot parallelize: non-reduction carried scalar %q", c.k.Name, name)
		}
		if op != vm.OpNop && op != r {
			return fmt.Errorf("compiler: kernel %s: mixed reduction operators in one parallel loop", c.k.Name)
		}
		op = r
		if vaccOf != nil {
			if red, ok := vaccOf[name]; ok {
				regs = append(regs, red.vacc)
				continue
			}
		}
		regs = append(regs, vi.reg)
	}
	if len(regs) > 0 {
		c.b.Reduce(op, regs...)
	}
	return nil
}

// compileVectorLoop emits a vectorized (possibly parallel) loop with
// reductions, if-conversion, and stride-classified memory references.
func (c *cg) compileVectorLoop(st lang.For, parallel bool, lr *LoopReport) error {
	lo, count, countReg, loReg, err := c.bounds(st)
	if err != nil {
		return err
	}

	carried := readBeforeWrite(st.Body)
	delete(carried, st.Var)
	redOps := reductionLets(st.Body, carried)

	unroll := 2 // default vectorizer unroll
	if st.Unroll > 1 && c.opt.HonorPragmas {
		unroll = st.Unroll
	}

	vc := &vecLoop{
		loopVar:    st.Var,
		unroll:     unroll,
		reductions: map[string]*reduction{},
		affEnv:     c.buildAffEnv(st),
		loopWrites: map[*lang.Array]bool{},
		hoisted:    map[string]int{},
	}
	use := lang.NewArrayUse()
	lang.CollectArrayUse(st.Body, use)
	vc.loopWrites = use.Writes

	// Loop-invariant code motion for memory: loads whose index uses only
	// loop-invariant values and whose array is not written in the loop are
	// performed once before the loop (a traditional compiler's LICM).
	bodyAssigned := map[string]bool{}
	lang.AssignedVars(st.Body, bodyAssigned)
	bodyAssigned[st.Var] = true
	// (Evaluated in the enclosing scalar context, before the loop opens.)
	reads, _ := collectAccesses(st.Body)
	for _, r := range reads {
		if vc.loopWrites[r.arr] {
			continue
		}
		key := r.arr.Name + "@" + lang.ExprString(r.flat)
		if _, done := vc.hoisted[key]; done {
			continue
		}
		used := map[string]bool{}
		lang.VarsUsed(r.flat, used)
		invariant := true
		for name := range used {
			if bodyAssigned[name] {
				invariant = false
				break
			}
		}
		if !invariant {
			continue
		}
		idx, _, err := c.evalIndex(r.flat)
		if err != nil {
			return err
		}
		out := c.b.Reg()
		c.b.Emit(vm.Instr{Op: vm.OpLoad, Dst: out, A: idx, Arr: c.arrIdx[r.arr], Scalar: true})
		vc.hoisted[key] = c.b.Broadcast(out)
	}

	// Vector accumulators, created before the loop opens. Names are
	// walked in sorted order here and below, so a kernel always compiles
	// to the same program.
	for _, name := range sortedNames(redOps) {
		op := redOps[name]
		vi := c.vars[name]
		if vi == nil {
			continue // loop-local accumulator (e.g. defined in an outer body only)
		}
		var vacc int
		switch op {
		case vm.OpAdd:
			vacc = c.b.Const(0)
		case vm.OpMin, vm.OpMax:
			vacc = c.b.Broadcast(vi.reg)
		}
		vc.reductions[name] = &reduction{op: op, vacc: vacc}
	}

	iv := c.b.OpenLoop(parallel, true, lo, count, countReg)
	c.b.SetUnroll(unroll)
	if parallel && st.Chunk > 0 {
		c.b.SetChunk(st.Chunk)
	}
	if parallel {
		if err := c.declareParallelReduce(st.Body, carried, vc.reductions); err != nil {
			return err
		}
	}

	varReg := iv
	if loReg >= 0 {
		b := c.b.Broadcast(loReg)
		varReg = c.b.Op2(vm.OpAdd, iv, b)
	}
	oldVar := c.vars[st.Var]
	c.vars[st.Var] = &varInfo{reg: varReg, vec: true}

	prevVec := c.vecCtx
	c.vecCtx = vc
	c.loopDepth++
	err = c.stmts(st.Body, false)
	c.loopDepth--
	c.vecCtx = prevVec
	c.b.End()
	c.vars[st.Var] = oldVar
	if err != nil {
		return err
	}

	// Fold vector accumulators back into their scalar homes.
	for _, name := range sortedNames(vc.reductions) {
		red := vc.reductions[name]
		vi := c.vars[name]
		switch red.op {
		case vm.OpAdd:
			h := c.b.Op1(vm.OpHAdd, red.vacc)
			c.b.Emit(vm.Instr{Op: vm.OpAdd, Dst: vi.reg, A: vi.reg, B: h, Scalar: true})
		case vm.OpMin:
			h := c.b.Op1(vm.OpHMin, red.vacc)
			c.b.Emit(vm.Instr{Op: vm.OpCopy, Dst: vi.reg, A: h, Scalar: true})
		case vm.OpMax:
			h := c.b.Op1(vm.OpHMax, red.vacc)
			c.b.Emit(vm.Instr{Op: vm.OpCopy, Dst: vi.reg, A: h, Scalar: true})
		}
	}
	_ = lr
	return nil
}
