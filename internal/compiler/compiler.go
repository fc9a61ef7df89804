// Package compiler lowers restricted-C kernels (internal/lang) to VM
// programs (internal/vm), playing the role of the paper's "modern compiler
// technology": it performs conservative dependence and aliasing analysis,
// auto-vectorizes legal innermost loops (with if-conversion, reduction
// recognition, strided and gathered memory references), honors the
// low-effort programmer annotations (#pragma simd / ivdep / unroll,
// restrict, omp parallel for), and reports exactly why each loop did or
// did not vectorize — the information ICC's -vec-report gives and the
// paper's methodology depends on.
package compiler

import (
	"fmt"

	"ninjagap/internal/lang"
	"ninjagap/internal/vm"
)

// Options selects the compilation level; the benchmark versions map onto
// these directly.
type Options struct {
	// Vectorize enables auto-vectorization of legal innermost loops.
	Vectorize bool
	// Parallel honors `parallel for` annotations on top-level loops.
	Parallel bool
	// HonorPragmas honors #pragma simd / ivdep / unroll hints. Without it
	// the compiler relies purely on its own conservative analysis.
	HonorPragmas bool
	// FastMath lowers divides and square roots to reciprocal
	// approximations plus a Newton step (ICC's -no-prec-div /
	// -no-prec-sqrt, part of the paper's "modern compiler technology").
	FastMath bool
}

// NaiveOptions compiles parallelism-unaware scalar code. Fast-math is on:
// the paper's baseline is naive *source*, not a naive compiler — ICC with
// production flags (-no-prec-div etc.) compiles every version.
func NaiveOptions() Options { return Options{FastMath: true} }

// AutoVecOptions enables auto-vectorization only (no annotations honored).
func AutoVecOptions() Options {
	return Options{Vectorize: true, FastMath: true}
}

// PragmaOptions honors the low-effort annotations, threads parallel loops,
// and enables fast-math lowering of divides and square roots.
func PragmaOptions() Options {
	return Options{Vectorize: true, Parallel: true, HonorPragmas: true, FastMath: true}
}

// Levels names the option presets in effort order. These are the
// compilation levels the submission service measures a user kernel at;
// the built-in benchmark versions map onto the same presets.
func Levels() []string { return []string{"naive", "autovec", "pragma"} }

// ByLevel resolves a preset by name — the per-submission options
// surface: callers that receive a level from outside (the /v1/submit
// request, the ninjagap submit command) select options by name instead
// of hard-coding preset constructors.
func ByLevel(name string) (Options, error) {
	switch name {
	case "naive":
		return NaiveOptions(), nil
	case "autovec":
		return AutoVecOptions(), nil
	case "pragma":
		return PragmaOptions(), nil
	}
	return Options{}, fmt.Errorf("compiler: unknown level %q (want naive, autovec or pragma)", name)
}

// Result is a compiled kernel plus its vectorization report.
type Result struct {
	Prog   *vm.Prog
	Report *Report
}

// Compile lowers a kernel.
func Compile(k *lang.Kernel, opt Options) (*Result, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	c := &cg{
		b:      vm.NewBuilder(k.Name),
		k:      k,
		opt:    opt,
		vars:   map[string]*varInfo{},
		arrIdx: map[*lang.Array]int{},
		consts: map[float64]int{},
		report: &Report{Kernel: k.Name},
	}
	elem := 4
	for _, a := range k.Arrays {
		c.arrIdx[a] = c.b.Array(a.Name, a.Elem.Bytes())
		if a.Elem == lang.F64 {
			elem = 8
		}
	}
	c.b.ElemBytes(elem)
	c.materializeConsts()
	if err := c.stmts(k.Body, true); err != nil {
		return nil, err
	}
	p, err := c.b.Build()
	if err != nil {
		return nil, err
	}
	return &Result{Prog: p, Report: c.report}, nil
}

// varInfo tracks a scalar local: its register and whether the register
// currently holds a per-lane vector value (inside a vectorized loop) or a
// scalar in lane 0.
type varInfo struct {
	reg int
	vec bool
}

type cg struct {
	b      *vm.Builder
	k      *lang.Kernel
	opt    Options
	vars   map[string]*varInfo
	arrIdx map[*lang.Array]int
	report *Report
	// consts maps literal values to pre-materialized registers (the
	// compiler's constant hoisting).
	consts map[float64]int

	loopDepth int
	// maskRegs is the stack of if-conversion mask registers (vectorized
	// conditional context); local assignments under a mask must blend.
	maskRegs []int
	// carried is the set of locals that are loop-carried in the current
	// loop (read before written); loads indexed by them lose MLP.
	carried map[string]bool
	// vecCtx is non-nil while generating the body of a vectorized loop.
	vecCtx *vecLoop
	// scalarView forces Var reads of vectorized values to their lane-0
	// scalar view, for affine base-address computation.
	scalarView bool
	// addrMode > 0 while evaluating index expressions: emitted arithmetic
	// is charged as integer address math.
	addrMode int
	// curLoop is the report entry of the loop being compiled.
	curLoop *LoopReport
}

// vecLoop carries the state of the vectorized loop being generated.
type vecLoop struct {
	loopVar string
	unroll  int
	// reductions maps local name -> vector accumulator register.
	reductions map[string]*reduction
	// affEnv holds affine coefficients of body locals w.r.t. loopVar.
	affEnv map[string]affVal
	// loopWrites is the set of arrays written in the loop.
	loopWrites map[*lang.Array]bool
	// hoisted maps "<array>@<flat index>" to a pre-loop broadcast register
	// holding the loop-invariant loaded value (LICM).
	hoisted map[string]int
}

// materializeConsts hoists every literal in the kernel (plus 0 and 1,
// which codegen synthesizes) into registers at program start.
func (c *cg) materializeConsts() {
	// 0 and 1 are synthesized by codegen; 0.5, 1.5 and 2 by the fast-math
	// Newton sequences.
	vals := map[float64]bool{0: true, 1: true, 0.5: true, 1.5: true, 2: true}
	var walkExpr func(e lang.Expr)
	walkExpr = func(e lang.Expr) {
		switch x := e.(type) {
		case lang.Num:
			vals[x.V] = true
		case lang.Access:
			walkExpr(x.Idx)
			// Layout lowering synthesizes field strides and offsets.
			fc := x.A.FieldCount()
			if fc > 1 {
				vals[float64(fc)] = true
				vals[float64(x.Field)] = true
				vals[float64(x.Field*x.A.Len)] = true
			}
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
				walkExpr(lang.Expr(st.LHS))
				walkExpr(st.X)
			case lang.For:
				walkExpr(st.Lo)
				walkExpr(st.Hi)
				walk(st.Body)
			case lang.If:
				walkExpr(st.Cond)
				walk(st.Then)
				walk(st.Else)
			case lang.While:
				walkExpr(st.Cond)
				walk(st.Body)
			}
		}
	}
	walk(c.k.Body)
	ordered := make([]float64, 0, len(vals))
	for v := range vals {
		ordered = append(ordered, v)
	}
	sortFloats(ordered)
	for _, v := range ordered {
		c.consts[v] = c.b.Const(v)
	}
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// noteStride records a strided reference on the current loop report.
func (c *cg) noteStride(stride int) {
	if c.curLoop != nil && stride != 1 && stride != 0 {
		c.curLoop.StridedRefs++
	}
}

// noteGather records a gather/scatter on the current loop report.
func (c *cg) noteGather() {
	if c.curLoop != nil {
		c.curLoop.GatherRefs++
	}
}

type reduction struct {
	op   vm.Op
	vacc int
}

// effMask returns the current combined if-conversion mask register, or -1.
func (c *cg) effMask() int {
	if len(c.maskRegs) == 0 {
		return -1
	}
	return c.maskRegs[len(c.maskRegs)-1]
}

// stmts compiles a statement list. topLevel marks the kernel body proper,
// where parallel loops are allowed.
func (c *cg) stmts(body []lang.Stmt, topLevel bool) error {
	for _, s := range body {
		if err := c.stmt(s, topLevel); err != nil {
			return err
		}
	}
	return nil
}

func (c *cg) stmt(s lang.Stmt, topLevel bool) error {
	switch st := s.(type) {
	case lang.Let:
		return c.let(st)
	case lang.Assign:
		return c.assign(st)
	case lang.For:
		return c.forLoop(st, topLevel)
	case lang.If:
		return c.ifStmt(st)
	case lang.While:
		return c.whileStmt(st)
	default:
		return fmt.Errorf("compiler: kernel %s: unknown statement %T", c.k.Name, s)
	}
}

// let assigns a scalar local. Inside a vectorized loop the value is a
// vector; under an if-conversion mask the assignment blends with the old
// value; recognized reduction updates go to the vector accumulator with a
// carried-dependence tag.
func (c *cg) let(st lang.Let) error {
	// Reduction update inside a vectorized loop?
	if c.vecCtx != nil {
		if red, ok := c.vecCtx.reductions[st.Name]; ok {
			return c.reduceUpdate(st, red)
		}
	}

	// In-place self-update (x = x op e): emit directly so the dependence
	// chain is charged on the arithmetic.
	if vi := c.vars[st.Name]; vi != nil {
		if done, err := c.selfUpdate(st, vi); done {
			return err
		}
	}

	val, vec, err := c.eval(st.X)
	if err != nil {
		return err
	}
	// Inside a vectorized loop every local lives in a vector register:
	// per-lane masking (tails, if-conversion, divergent whiles) blends all
	// lanes, so a lane-0-only value would leak garbage into masked lanes
	// and persist across outer iterations.
	if c.vecCtx != nil && !vec {
		val = c.b.Broadcast(val)
		vec = true
	}
	vi := c.vars[st.Name]
	if vi == nil {
		// Fresh local: bind directly to the value register — except when
		// the RHS is a bare variable or literal, whose (shared) register
		// must not be aliased: a later reassignment would clobber it.
		switch st.X.(type) {
		case lang.Var, lang.Num:
			r := c.b.Reg()
			c.b.Emit(vm.Instr{Op: vm.OpCopy, Dst: r, A: val, Scalar: !vec})
			val = r
		}
		c.vars[st.Name] = &varInfo{reg: val, vec: vec}
		if m := c.effMask(); m >= 0 {
			// Defined under a mask: inactive lanes keep zero; acceptable
			// because the local is dead outside the mask in well-formed
			// kernels, but blend against zero for determinism.
			zero := c.b.Const(0)
			c.vars[st.Name].reg = c.b.Blend(val, zero, m)
		}
		return nil
	}
	// Reassignment: write into the existing register, blending under mask.
	if vec && !vi.vec {
		vi.vec = true // scalar local promoted to vector inside vector loop
	}
	if m := c.effMask(); m >= 0 {
		c.b.Emit(vm.Instr{Op: vm.OpBlend, Dst: vi.reg, A: val, B: vi.reg, C: m})
		return nil
	}
	c.b.Emit(vm.Instr{Op: vm.OpCopy, Dst: vi.reg, A: val, Scalar: !vec && !vi.vec})
	return nil
}

// selfUpdate tries to compile `x = x op e` directly as an in-place update
// so the dependence chain is charged on the arithmetic op itself (the way
// a compiler's register allocation would produce it). Returns true if
// handled.
func (c *cg) selfUpdate(st lang.Let, vi *varInfo) (bool, error) {
	if c.effMask() >= 0 {
		return false, nil // masked assignments must blend
	}
	var op vm.Op
	var rhs lang.Expr
	switch x := st.X.(type) {
	case lang.Bin:
		switch x.Op {
		case lang.Add:
			if isVarNamed(x.L, st.Name) {
				op, rhs = vm.OpAdd, x.R
			} else if isVarNamed(x.R, st.Name) {
				op, rhs = vm.OpAdd, x.L
			}
		case lang.Sub:
			if isVarNamed(x.L, st.Name) {
				op, rhs = vm.OpSub, x.R
			}
		case lang.Mul:
			if isVarNamed(x.L, st.Name) {
				op, rhs = vm.OpMul, x.R
			} else if isVarNamed(x.R, st.Name) {
				op, rhs = vm.OpMul, x.L
			}
		}
	case lang.Call:
		if x.Fn == "min" || x.Fn == "max" {
			if isVarNamed(x.Args[0], st.Name) {
				rhs = x.Args[1]
			} else if isVarNamed(x.Args[1], st.Name) {
				rhs = x.Args[0]
			}
			if rhs != nil {
				op = vm.OpMin
				if x.Fn == "max" {
					op = vm.OpMax
				}
			}
		}
	}
	if rhs == nil {
		return false, nil
	}
	val, vec, err := c.eval(rhs)
	if err != nil {
		return true, err
	}
	if c.vecCtx != nil && !vec {
		val = c.b.Broadcast(val)
		vec = true
	}
	if vec && !vi.vec {
		vi.vec = true
	}
	c.b.Emit(vm.Instr{Op: op, Dst: vi.reg, A: vi.reg, B: val,
		Scalar: !vec && !vi.vec, Carried: c.loopDepth > 0})
	return true, nil
}

// reduceUpdate compiles `acc = acc op e` inside a vectorized loop into a
// vector accumulator update.
func (c *cg) reduceUpdate(st lang.Let, red *reduction) error {
	rhs, err := c.reductionRHS(st, red.op)
	if err != nil {
		return err
	}
	val, vec, err := c.eval(rhs)
	if err != nil {
		return err
	}
	if !vec {
		val = c.b.Broadcast(val)
	}
	// Neutralize inactive lanes: under an if-conversion mask, and on
	// masked tail iterations (captured by the hardware execution mask).
	unroll := c.vecCtx.unroll
	m := c.effMask()
	if m < 0 {
		m = c.b.MaskMov()
	}
	switch red.op {
	case vm.OpAdd:
		val = c.b.Blend(val, c.constReg(0), m)
	case vm.OpMin, vm.OpMax:
		val = c.b.Blend(val, red.vacc, m)
	}
	c.b.Emit(vm.Instr{Op: red.op, Dst: red.vacc, A: red.vacc, B: val,
		Carried: true, Unroll: unroll})
	return nil
}

// reductionRHS extracts e from `x = x op e` (or min/max(x, e)).
func (c *cg) reductionRHS(st lang.Let, op vm.Op) (lang.Expr, error) {
	switch x := st.X.(type) {
	case lang.Bin:
		if op == vm.OpAdd && x.Op == lang.Add {
			if v, ok := x.L.(lang.Var); ok && v.Name == st.Name {
				return x.R, nil
			}
			if v, ok := x.R.(lang.Var); ok && v.Name == st.Name {
				return x.L, nil
			}
		}
		if op == vm.OpAdd && x.Op == lang.Sub {
			if v, ok := x.L.(lang.Var); ok && v.Name == st.Name {
				return lang.Fn("neg", x.R), nil
			}
		}
	case lang.Call:
		if (op == vm.OpMin && x.Fn == "min") || (op == vm.OpMax && x.Fn == "max") {
			if v, ok := x.Args[0].(lang.Var); ok && v.Name == st.Name {
				return x.Args[1], nil
			}
			if v, ok := x.Args[1].(lang.Var); ok && v.Name == st.Name {
				return x.Args[0], nil
			}
		}
	}
	return nil, fmt.Errorf("compiler: kernel %s: unsupported reduction form for %s", c.k.Name, st.Name)
}

// assign compiles an array store.
func (c *cg) assign(st lang.Assign) error {
	val, vec, err := c.eval(st.X)
	if err != nil {
		return err
	}
	return c.emitStore(st.LHS, val, vec)
}

// ifStmt compiles a conditional: a scalar branch outside vector context,
// if-conversion (masked execution of both arms) inside one.
func (c *cg) ifStmt(st lang.If) error {
	if c.vecCtx == nil {
		cond, _, err := c.eval(st.Cond)
		if err != nil {
			return err
		}
		c.b.If(cond, st.MissProb)
		if err := c.stmts(st.Then, false); err != nil {
			return err
		}
		if len(st.Else) > 0 {
			c.b.Else()
			if err := c.stmts(st.Else, false); err != nil {
				return err
			}
		}
		c.b.End()
		return nil
	}
	// If-conversion.
	cond, vec, err := c.eval(st.Cond)
	if err != nil {
		return err
	}
	if !vec {
		cond = c.b.Broadcast(cond)
	}
	m := cond
	if outer := c.effMask(); outer >= 0 {
		m = c.b.Op2(vm.OpAndM, cond, outer)
	}
	c.maskRegs = append(c.maskRegs, m)
	c.b.IfMask(m)
	err = c.stmts(st.Then, false)
	c.b.End()
	c.maskRegs = c.maskRegs[:len(c.maskRegs)-1]
	if err != nil {
		return err
	}
	if len(st.Else) > 0 {
		nm := c.b.Op1(vm.OpNotM, cond)
		if outer := c.effMask(); outer >= 0 {
			nm = c.b.Op2(vm.OpAndM, nm, outer)
		}
		c.maskRegs = append(c.maskRegs, nm)
		c.b.IfMask(nm)
		err = c.stmts(st.Else, false)
		c.b.End()
		c.maskRegs = c.maskRegs[:len(c.maskRegs)-1]
		if err != nil {
			return err
		}
	}
	return nil
}

// whileStmt compiles a while loop. Outside vector context it is a scalar
// loop whose data-dependent exit branch costs mispredictions. Inside a
// vectorized loop (reachable only under #pragma simd — the restructured
// TreeSearch/Volume Rendering pattern) it becomes a masked vector while:
// lanes that exit are frozen by blending, and the loop runs until every
// lane's condition is false, which is exactly SIMD divergence.
func (c *cg) whileStmt(st lang.While) error {
	prevCarried := c.carried
	c.carried = map[string]bool{}
	for k, v := range prevCarried {
		c.carried[k] = v
	}
	assigned := map[string]bool{}
	lang.AssignedVars(st.Body, assigned)
	for name := range assigned {
		c.carried[name] = true
	}
	// Plain inductions (x = x + const, assigned unconditionally at the top
	// level of the body) produce predictable address streams the
	// out-of-order engine runs ahead of; they are not dependence chains.
	for _, name := range whileInductions(st.Body) {
		delete(c.carried, name)
	}
	defer func() { c.carried = prevCarried }()

	if c.vecCtx != nil {
		return c.vectorWhile(st)
	}

	cond, vec, err := c.eval(st.Cond)
	if err != nil {
		return err
	}
	condReg := c.b.Reg()
	c.b.Emit(vm.Instr{Op: vm.OpCopy, Dst: condReg, A: cond, Scalar: !vec})
	c.loopDepth++
	c.b.While(condReg, st.MissProb)
	if err := c.stmts(st.Body, false); err != nil {
		return err
	}
	cond2, vec2, err := c.eval(st.Cond)
	if err != nil {
		return err
	}
	c.b.Emit(vm.Instr{Op: vm.OpCopy, Dst: condReg, A: cond2, Scalar: !vec2})
	c.b.End()
	c.loopDepth--
	return nil
}

// whileInductions finds while-body locals whose only assignment is an
// unconditional top-level x = x + <const> step.
func whileInductions(body []lang.Stmt) []string {
	counts := map[string]int{}
	inductive := map[string]bool{}
	var countAll func(stmts []lang.Stmt)
	countAll = func(stmts []lang.Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case lang.Let:
				counts[st.Name]++
			case lang.If:
				countAll(st.Then)
				countAll(st.Else)
			case lang.While:
				countAll(st.Body)
			case lang.For:
				countAll(st.Body)
			}
		}
	}
	countAll(body)
	for _, s := range body { // top level only: unconditional steps
		st, ok := s.(lang.Let)
		if !ok {
			continue
		}
		if b, ok := st.X.(lang.Bin); ok && b.Op == lang.Add {
			if v, ok := b.L.(lang.Var); ok && v.Name == st.Name {
				if _, isNum := b.R.(lang.Num); isNum {
					inductive[st.Name] = true
				}
			}
		}
	}
	var out []string
	for name := range inductive {
		if counts[name] == 1 {
			out = append(out, name)
		}
	}
	return out
}

// vectorWhile emits the masked-divergence form of a while loop.
func (c *cg) vectorWhile(st lang.While) error {
	cond, condVec, err := c.eval(st.Cond)
	if err != nil {
		return err
	}
	if !condVec {
		cond = c.b.Broadcast(cond)
	}
	condReg := c.b.Reg()
	c.b.Emit(vm.Instr{Op: vm.OpCopy, Dst: condReg, A: cond})
	if outer := c.effMask(); outer >= 0 {
		c.b.Emit(vm.Instr{Op: vm.OpAndM, Dst: condReg, A: condReg, B: outer})
	}

	c.loopDepth++
	c.b.While(condReg, 0)
	// Locals assigned in the body must freeze in exited lanes.
	c.maskRegs = append(c.maskRegs, condReg)
	err = c.stmts(st.Body, false)
	c.maskRegs = c.maskRegs[:len(c.maskRegs)-1]
	if err != nil {
		return err
	}
	cond2, vec2, err := c.eval(st.Cond)
	if err != nil {
		return err
	}
	if !vec2 {
		cond2 = c.b.Broadcast(cond2)
	}
	// Monotone exit: once a lane leaves, it stays out.
	c.b.Emit(vm.Instr{Op: vm.OpAndM, Dst: condReg, A: cond2, B: condReg})
	c.b.End()
	c.loopDepth--
	return nil
}
