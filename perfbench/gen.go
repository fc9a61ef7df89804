package main

// Seeded restricted-C kernel generator and reformatter for the warm
// workload.
//
// Kernel i of a stream is a pure function of (seed, stream, i). Array
// length, loop depth and access pattern are each stratified on their
// own, in seeded order: every block of lengthStrata consecutive kernels
// has one kernel in each of lengthStrata equal slices of the log-length
// range, every block of maxLoopDepth one of each depth, and every block
// of numPatterns one of each pattern. The warm workload submits only
// lengthStrata kernels; their lengths set what its set-up costs, and
// their depths and patterns what a resubmission costs, so stratifying
// keeps both about the same for every seed. Element type and pragmas are
// drawn independently per kernel.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// pattern is the access pattern of a generated loop body.
type pattern int

const (
	patUnit pattern = iota
	patStrided
	patGather
	patRecurrence
	patReduction
	patSelect
	numPatterns
)

var patternNames = [numPatterns]string{"unit", "strided", "gather", "recurrence", "reduction", "select"}

func (p pattern) String() string { return patternNames[p] }

// Array lengths are log-uniform over [minLen, maxLen] elements.
const (
	minLen        = 256
	maxLen        = 65536
	lengthStrata  = 16
	maxLoopDepth  = 3
	genRandStream = 0x9e3779b97f4a7c15
)

// srcLine is one source line as tokens. Pragma lines are kept whole: the
// lexer reads a pragma to the end of its line and matches its text, so
// the reformatter may only re-indent them.
type srcLine struct {
	depth  int
	toks   []string
	pragma bool
}

// genKernel is a generated kernel with the parameters that shaped it.
type genKernel struct {
	Name    string
	Len     int
	Depth   int
	Pattern pattern
	F64     bool
	lines   []srcLine
}

// generator produces the kernel stream of one workload run.
type generator struct {
	seed   int64
	stream int64
}

// mix is splitmix64's finalizer: it turns (seed, stream, index) into
// independent-looking rand seeds.
func mix(x uint64) uint64 {
	x += genRandStream
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (g generator) rng(kind, index int64) *rand.Rand {
	s := mix(uint64(g.seed) ^ mix(uint64(g.stream)<<8^uint64(kind)) ^ mix(uint64(index)))
	return rand.New(rand.NewSource(int64(s >> 1)))
}

// stratum returns the position of i within a seeded permutation of its
// block of n: consecutive blocks of n indices visit every stratum once.
func (g generator) stratum(kind int64, i, n int) int {
	return g.rng(kind, int64(i/n)).Perm(n)[i%n]
}

// kernel returns kernel i of the stream.
func (g generator) kernel(i int) genKernel {
	r := g.rng(1, int64(i))
	u := (float64(g.stratum(2, i, lengthStrata)) + r.Float64()) / lengthStrata
	k := genKernel{
		Name:    fmt.Sprintf("gen%x_%d", uint32(g.seed)^uint32(g.stream), i),
		Len:     int(math.Round(minLen * math.Pow(float64(maxLen)/minLen, u))),
		Depth:   1 + g.stratum(3, i, maxLoopDepth),
		Pattern: pattern(g.stratum(4, i, int(numPatterns))),
		F64:     r.Intn(2) == 0,
	}
	k.lines = buildKernel(r, k, r.Intn(2) == 0, r.Intn(2) == 0)
	return k
}

// buildKernel lays out the kernel's source lines. simd and parallel ask
// for the pragmas on the innermost and outermost loop, where the pattern
// makes them true assertions.
func buildKernel(r *rand.Rand, k genKernel, simd, parallel bool) []srcLine {
	elem := "f32"
	if k.F64 {
		elem = "f64"
	}
	stride := 1
	if k.Pattern == patStrided {
		stride = 1 << (1 + r.Intn(3)) // 2, 4 or 8
	}
	// Every array has k.Len elements; a strided read walks one of them
	// stride elements at a time, so its loops cover k.Len/stride points.
	trips := splitTrips(r, k.Len/stride, k.Depth)
	vars := []string{"i", "j", "k"}[:k.Depth]

	arrays := []string{"x", "y"}
	withZ := k.Pattern == patGather || k.Pattern == patUnit && r.Intn(2) == 0
	if withZ {
		arrays = append(arrays, "z")
	}
	var lines []srcLine
	add := func(depth int, toks ...string) { lines = append(lines, srcLine{depth: depth, toks: toks}) }
	pragma := func(depth int, text string) {
		lines = append(lines, srcLine{depth: depth, toks: []string{text}, pragma: true})
	}

	head := []string{"kernel", k.Name, "("}
	for ai, a := range arrays {
		if ai > 0 {
			head = append(head, ",")
		}
		head = append(head, elem)
		if r.Intn(2) == 0 {
			head = append(head, "restrict")
		}
		head = append(head, a, "[", fmt.Sprint(k.Len), "]")
	}
	add(0, append(head, ")", "{")...)

	if k.Pattern == patReduction {
		add(1, "acc", "=", "0", ";")
	}
	// A recurrence carries a dependence along its innermost loop, so that
	// loop starts at 1 and gets no simd pragma; when the nest is a single
	// loop it gets no parallel pragma either. Every other pattern is
	// independent across iterations, so the pragmas are true assertions.
	innerSimd := simd && k.Pattern != patRecurrence
	outerPar := parallel && !(k.Pattern == patRecurrence && k.Depth == 1)
	for d := 0; d < k.Depth; d++ {
		if d == 0 && outerPar {
			pragma(1, "#pragma omp parallel for")
		}
		if d == k.Depth-1 && innerSimd {
			pragma(1+d, "#pragma simd")
		}
		lo := "0"
		if d == k.Depth-1 && k.Pattern == patRecurrence {
			lo = "1"
		}
		v := vars[d]
		add(1+d, "for", "(", v, "=", lo, ";", v, "<", fmt.Sprint(trips[d]), ";", v, "++", ")", "{")
	}
	add(1+k.Depth, body(r, k, flatIndex(vars, trips), stride, withZ)...)
	for d := k.Depth - 1; d >= 0; d-- {
		add(1+d, "}")
	}
	if k.Pattern == patReduction {
		add(1, "y", "[", "0", "]", "=", "acc", ";")
	}
	add(0, "}")
	return lines
}

// splitTrips factors a total iteration count into depth loop trip counts
// whose product is at most total: inner loops get small power-of-two
// trips, the outermost loop the rest.
func splitTrips(r *rand.Rand, total, depth int) []int {
	trips := make([]int, depth)
	rest := total
	for d := depth - 1; d > 0; d-- {
		t := 1 << (1 + r.Intn(5)) // 2..32
		for t > 2 && t*4 > rest {
			t /= 2
		}
		trips[d] = t
		rest /= t
	}
	trips[0] = rest
	return trips
}

// flatIndex renders the row-major flat index of the loop nest, e.g.
// "i * 64 + j * 8 + k".
func flatIndex(vars []string, trips []int) []string {
	var toks []string
	for d, v := range vars {
		step := 1
		for _, t := range trips[d+1:] {
			step *= t
		}
		if d > 0 {
			toks = append(toks, "+")
		}
		toks = append(toks, v)
		if step > 1 {
			toks = append(toks, "*", fmt.Sprint(step))
		}
	}
	return toks
}

// constants are exactly representable, so every literal survives the
// canonical print/parse round trip unchanged.
var constants = []string{"0.5", "0.75", "1.25", "1.5", "2.5", "3"}

// body renders the loop body statement for the kernel's pattern.
func body(r *rand.Rand, k genKernel, idx []string, stride int, withZ bool) []string {
	c := func() string { return constants[r.Intn(len(constants))] }
	at := func(a string, index ...string) []string {
		return append(append([]string{a, "["}, index...), "]")
	}
	cat := func(parts ...[]string) []string {
		var out []string
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	x, y := at("x", idx...), at("y", idx...)
	switch k.Pattern {
	case patStrided:
		sx := at("x", cat([]string{fmt.Sprint(stride), "*", "("}, idx, []string{")"})...)
		return cat(y, []string{"=", c(), "*"}, sx, []string{"+"}, y, []string{";"})
	case patGather:
		// z holds values in [1, 2), so floor(z * len/2) indexes the upper
		// half of x: a data-dependent gather that stays in bounds.
		gi := cat([]string{"floor", "("}, at("z", idx...), []string{"*", fmt.Sprint(k.Len / 2), ")"})
		return cat(y, []string{"="}, at("x", gi...), []string{"*", c(), "+"}, y, []string{";"})
	case patRecurrence:
		prev := at("y", append(append([]string{}, idx...), "-", "1")...)
		return cat(y, []string{"="}, prev, []string{"*", "0.5", "+"}, x, []string{";"})
	case patReduction:
		return cat([]string{"acc", "=", "acc", "+"}, x, []string{"*"}, y, []string{";"})
	case patSelect:
		return cat(y, []string{"=", "select", "("}, x, []string{">", "1.5", ","}, x,
			[]string{"*", c(), ","}, y, []string{"+", c(), ")", ";"})
	default: // patUnit
		if !withZ {
			return cat(y, []string{"=", c(), "*"}, x, []string{"+"}, y, []string{";"})
		}
		z := at("z", idx...)
		return cat(y, []string{"=", "sqrt", "("}, x, []string{"*"}, x, []string{"+"}, z,
			[]string{")", "*", c(), "-"}, y, []string{";"})
	}
}

// noSpaceBefore and noSpaceAfter give the compact rendering its C look.
var (
	noSpaceBefore = map[string]bool{"[": true, "]": true, ")": true, ",": true, ";": true, "++": true}
	noSpaceAfter  = map[string]bool{"[": true, "(": true}
)

// Source renders the kernel in its plain form.
func (k genKernel) Source() string {
	var sb strings.Builder
	for _, l := range k.lines {
		sb.WriteString(strings.Repeat("    ", l.depth))
		for ti, t := range l.toks {
			if ti > 0 && !noSpaceBefore[t] && !noSpaceAfter[l.toks[ti-1]] &&
				!(t == "(" && (l.toks[ti-1] == "floor" || l.toks[ti-1] == "sqrt" || l.toks[ti-1] == "select")) {
				sb.WriteByte(' ')
			}
			sb.WriteString(t)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// gaps are the separators the reformatter puts between tokens, plain
// spaces weighted up so a variant still reads like code.
var gaps = []string{" ", " ", " ", " ", "", "  ", "\t", "\n", " /* was: tmp */ "}

// Reformat renders the kernel with whitespace and comments changed at
// random and nothing else, so lang.Normalize maps every variant to the
// same canonical source.
func (k genKernel) Reformat(r *rand.Rand) string {
	var sb strings.Builder
	if r.Intn(2) == 0 {
		sb.WriteString("// resubmitted\n")
	}
	for _, l := range k.lines {
		indent := []string{"", "  ", "\t", "        "}[r.Intn(4)]
		sb.WriteString(indent)
		if l.pragma {
			sb.WriteString(l.toks[0])
			sb.WriteByte('\n')
			continue
		}
		for ti, t := range l.toks {
			if ti > 0 {
				g := gaps[r.Intn(len(gaps))]
				if g == "" && !separable(l.toks[ti-1], t) {
					g = " "
				}
				sb.WriteString(g)
			}
			sb.WriteString(t)
		}
		switch r.Intn(4) {
		case 0:
			sb.WriteString(" // note")
		case 1:
			sb.WriteString("\n")
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// separable reports whether two tokens still lex apart with nothing
// between them: identifiers and numbers run together, and so do
// operator characters that form a two-character operator.
func separable(a, b string) bool {
	word := func(s string) bool {
		c := s[len(s)-1]
		return c == '_' || c == '.' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
	}
	if word(a) && word(b[:1]) {
		return false
	}
	if strings.ContainsAny(a[len(a)-1:], "+-*/<>=!&|") && strings.ContainsAny(b[:1], "+-*/<>=!&|") {
		return false
	}
	return true
}
