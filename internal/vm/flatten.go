package vm

// Program linearization: the structured Body/Else trees are laid out as one
// contiguous instruction arena, with control instructions referring to their
// bodies by index span. The execution engine binds machine-specific costs
// onto this flat form once per run and then walks plain slices — no pointer
// chasing and no per-iteration re-derivation of structural facts.

// Span is a half-open index range [Start, End) into a FlatProg's arena.
type Span struct {
	Start, End int32
}

// Len returns the number of instructions in the span.
func (s Span) Len() int { return int(s.End - s.Start) }

// FlatInstr is one instruction of a linearized program: the original
// instruction value with its nested Body/Else replaced by arena spans
// (the slices themselves are cleared to keep the flat form self-contained).
type FlatInstr struct {
	Instr
	BodySpan Span
	ElseSpan Span
}

// FlatProg is a linearized program. Every body is a contiguous run of the
// arena, so an interpreter executes `Instrs[s.Start:s.End]` per block.
type FlatProg struct {
	Prog   *Prog
	Instrs []FlatInstr
	Top    Span
}

// Flatten linearizes the program. The program is not mutated; instruction
// values are copied into the arena.
func (p *Prog) Flatten() *FlatProg {
	f := &FlatProg{Prog: p, Instrs: make([]FlatInstr, 0, p.CountInstrs())}
	f.Top = f.emit(p.Body)
	return f
}

// emit appends one block contiguously, then recurses into child bodies
// (which land after the block, keeping every block contiguous).
func (f *FlatProg) emit(body []Instr) Span {
	start := int32(len(f.Instrs))
	for i := range body {
		fi := FlatInstr{Instr: body[i]}
		fi.Body, fi.Else = nil, nil
		f.Instrs = append(f.Instrs, fi)
	}
	end := int32(len(f.Instrs))
	for i := range body {
		idx := start + int32(i)
		bs := f.emit(body[i].Body)
		es := f.emit(body[i].Else)
		f.Instrs[idx].BodySpan = bs
		f.Instrs[idx].ElseSpan = es
	}
	return Span{Start: start, End: end}
}
