package exec

import (
	"fmt"

	"ninjagap/internal/cache"
	"ninjagap/internal/machine"
)

// touchLineMLP simulates one demand cache access and charges miss stalls,
// overlapping misses up to the given miss-level-parallelism factor. The
// per-instruction mlp (reduced to 1 for carried loads — pointer chasing) is
// pre-bound; carried vector gathers compute theirs from the live mask.
func (t *threadCtx) touchLineMLP(lineAddr uint64, write bool, mlp float64) {
	lvl, lat := t.hier.AccessCost(lineAddr, write)
	if write {
		// Store misses are absorbed by the store buffer and write-combining;
		// their cost surfaces as DRAM traffic in the bandwidth bound.
		return
	}
	if lvl == cache.L1 {
		return // covered by the pipelined L1 latency
	}
	pen := lat - t.e.l1Latency
	if pen > 0 {
		t.cost.stall += pen / mlp
	}
}

// touchCursor is touchLineMLP through the instruction's per-thread line
// cursor: the scalar load/store paths touch one line per access and very
// often the same line many times in a row (merge runs, ray marches, tree
// levels near the root), which the cursor's L1 fast path serves without a
// set probe or prefetcher lookup — bit-identically, see cache.TouchLine.
func (t *threadCtx) touchCursor(bi *bInstr, lineAddr uint64, write bool, mlp float64) {
	lvl, lat := t.hier.TouchLine(&t.cursors[bi.cur], lineAddr, write)
	if write || lvl == cache.L1 {
		return
	}
	pen := lat - t.e.l1Latency
	if pen > 0 {
		t.cost.stall += pen / mlp
	}
}

// accessRun simulates the ascending duplicate-free line run [first, last]
// of a contiguous vector access via the hierarchy's batched path,
// accumulating read miss stalls in line order (bit-identical to per-line
// touchLineMLP calls).
func (t *threadCtx) accessRun(first, last uint64, write bool, mlp float64) {
	n := 1
	if last != first {
		n += int((last - first) / uint64(t.e.lineBytes))
	}
	t.hier.AccessRun(first, n, write, t.e.l1Latency, mlp, &t.cost.stall)
}

func (t *threadCtx) boundsErr(bi *bInstr, idx int64) {
	t.fail(fmt.Errorf("exec: prog %s: %s on array %s: index %d out of range [0,%d)",
		t.e.prog.Name, bi.op, bi.arr.Name, idx, len(bi.arr.Data)))
}

// load implements OpLoad: lane l reads arr[base + l*stride] (scalar: just
// base). Cost depends on the pre-bound stride class: unit/broadcast strides
// are one vector load; small strides cost extra loads and shuffles; large
// strides degrade to a gather.
func (t *threadCtx) load(bi *bInstr, w int) {
	arr := bi.arr
	base := int64(t.reg(bi.a)[0])
	d := t.reg(bi.dst)
	eb := bi.eb

	if w == 1 {
		hLoadS(t, bi)
		return
	}

	// Contiguous fast path: a full-mask forward unit-stride load reads
	// arr[base : base+w] and touches an ascending, duplicate-free run of
	// lines — the same values, in the same first-touch order, the general
	// loop below would produce.
	if bi.stride == 1 && t.mask == t.e.wMask && eb <= uint64(t.e.lineBytes) {
		if base < 0 || base+int64(w) > int64(len(arr.Data)) {
			t.slowLoad(bi, w, base)
			return
		}
		copy(d[:w], arr.Data[base:base+int64(w)])
		t.cost.add(bi.ch)
		if bi.alignCheck && base%int64(w) != 0 {
			t.cost.add(bi.chB) // realign penalty
		}
		t.addCarried(bi)
		first := t.e.lineOf(arr.Base + uint64(base)*eb)
		last := t.e.lineOf(arr.Base + uint64(base+int64(w)-1)*eb)
		t.accessRun(first, last, false, bi.mlp)
		return
	}
	t.slowLoad(bi, w, base)
}

// slowLoad is the general (masked / strided / gathering) vector-load path.
func (t *threadCtx) slowLoad(bi *bInstr, w int, base int64) {
	arr := bi.arr
	d := t.reg(bi.dst)
	eb := bi.eb
	stride := bi.stride
	lines := &t.memLines
	nl := 0
	for l := 0; l < w; l++ {
		if t.mask&(1<<uint(l)) == 0 {
			d[l] = 0
			continue
		}
		idx := base + int64(l)*stride
		if idx < 0 || idx >= int64(len(arr.Data)) {
			t.boundsErr(bi, idx)
			return
		}
		d[l] = arr.Data[idx]
		la := t.e.lineOf(arr.Base + uint64(idx)*eb)
		dup := false
		for i := 0; i < nl; i++ {
			if lines[i] == la {
				dup = true
				break
			}
		}
		if !dup {
			lines[nl] = la
			nl++
		}
	}

	// Port cost by stride class (reverse strides behave like forward ones
	// plus a permute).
	switch bi.memKind {
	case memUnit:
		t.cost.add(bi.ch)
		if bi.revPermute {
			t.cost.add(bi.chB) // reverse permute
		}
		if bi.alignCheck && base%int64(w) != 0 {
			t.cost.add(bi.chB) // realign penalty
		}
	case memSmall:
		for s := int64(0); s < bi.astride; s++ {
			t.cost.add(bi.ch)
			t.cost.add(bi.chB)
		}
	default:
		t.gatherCost(nl)
	}
	t.addCarried(bi)
	for i := 0; i < nl; i++ {
		t.touchLineMLP(lines[i], false, bi.mlp)
	}
}

// hLoadS is the scalar load, and load's w == 1 path: lane 0 reads
// arr[base], touching its line through the instruction's cursor.
func hLoadS(t *threadCtx, bi *bInstr) {
	arr := bi.arr
	base := int64(t.reg(bi.a)[0])
	if base < 0 || base >= int64(len(arr.Data)) {
		t.boundsErr(bi, base)
		return
	}
	t.reg(bi.dst)[0] = arr.Data[base]
	t.cost.add(bi.ch)
	t.addCarried(bi)
	t.touchCursor(bi, t.e.lineOf(arr.Base+uint64(base)*bi.eb), false, bi.mlp)
}

// store implements OpStore: lane l writes arr[base + l*stride] (masked).
func (t *threadCtx) store(bi *bInstr, w int) {
	arr := bi.arr
	base := int64(t.reg(bi.b)[0])
	v := t.reg(bi.a)
	eb := bi.eb

	if w == 1 {
		hStoreS(t, bi)
		return
	}

	// Contiguous fast path, mirroring load's: full-mask forward unit
	// stride writes arr[base : base+w] and dirties an ascending run of
	// lines (a full mask also means no masked-store blend charge).
	if bi.stride == 1 && t.mask == t.e.wMask && eb <= uint64(t.e.lineBytes) {
		if base < 0 || base+int64(w) > int64(len(arr.Data)) {
			t.slowStore(bi, w, base)
			return
		}
		copy(arr.Data[base:base+int64(w)], v[:w])
		t.cost.add(bi.ch)
		first := t.e.lineOf(arr.Base + uint64(base)*eb)
		last := t.e.lineOf(arr.Base + uint64(base+int64(w)-1)*eb)
		t.accessRun(first, last, true, bi.mlp)
		return
	}
	t.slowStore(bi, w, base)
}

// hStoreS is the scalar store, and store's w == 1 path: lane 0 writes
// arr[base], touching its line through the instruction's cursor.
func hStoreS(t *threadCtx, bi *bInstr) {
	arr := bi.arr
	base := int64(t.reg(bi.b)[0])
	if base < 0 || base >= int64(len(arr.Data)) {
		t.boundsErr(bi, base)
		return
	}
	arr.Data[base] = t.reg(bi.a)[0]
	t.cost.add(bi.ch)
	t.touchCursor(bi, t.e.lineOf(arr.Base+uint64(base)*bi.eb), true, bi.mlp)
}

// slowStore is the general (masked / strided / scattering) vector-store path.
func (t *threadCtx) slowStore(bi *bInstr, w int, base int64) {
	arr := bi.arr
	v := t.reg(bi.a)
	eb := bi.eb
	stride := bi.stride
	lines := &t.memLines
	nl := 0
	for l := 0; l < w; l++ {
		if t.mask&(1<<uint(l)) == 0 {
			continue
		}
		idx := base + int64(l)*stride
		if idx < 0 || idx >= int64(len(arr.Data)) {
			t.boundsErr(bi, idx)
			return
		}
		arr.Data[idx] = v[l]
		la := t.e.lineOf(arr.Base + uint64(idx)*eb)
		dup := false
		for i := 0; i < nl; i++ {
			if lines[i] == la {
				dup = true
				break
			}
		}
		if !dup {
			lines[nl] = la
			nl++
		}
	}
	switch bi.memKind {
	case memUnit:
		t.cost.add(bi.ch)
		if t.mask != t.fullMask() {
			t.cost.add(bi.chC) // masked store needs a blend/mask op
		}
	case memSmall:
		for s := int64(0); s < bi.astride; s++ {
			t.cost.add(bi.ch)
			t.cost.add(bi.chB)
		}
	default:
		t.scatterCost(nl)
	}
	for i := 0; i < nl; i++ {
		t.touchLineMLP(lines[i], true, bi.mlp)
	}
}

// gather implements OpGather: lane l reads arr[idx.lane(l)].
func (t *threadCtx) gather(bi *bInstr, w int) {
	arr := bi.arr
	idxs := t.reg(bi.a)
	d := t.reg(bi.dst)
	eb := bi.eb

	lines := &t.memLines
	nl := 0
	for l := 0; l < w; l++ {
		if w > 1 && t.mask&(1<<uint(l)) == 0 {
			d[l] = 0
			continue
		}
		idx := int64(idxs[l])
		if idx < 0 || idx >= int64(len(arr.Data)) {
			t.boundsErr(bi, idx)
			return
		}
		d[l] = arr.Data[idx]
		la := t.e.lineOf(arr.Base + uint64(idx)*eb)
		dup := false
		for i := 0; i < nl; i++ {
			if lines[i] == la {
				dup = true
				break
			}
		}
		if !dup {
			lines[nl] = la
			nl++
		}
	}
	t.gatherCost(nl)
	t.addCarried(bi)
	// A carried gather serializes with the previous iteration, but its own
	// lanes' misses still overlap with each other.
	mlp := bi.mlp
	if bi.carried {
		act := t.act
		if act < 1 {
			act = 1
		}
		if float64(act) < mlp {
			mlp = float64(act)
		}
	}
	for i := 0; i < nl; i++ {
		t.touchLineMLP(lines[i], false, mlp)
	}
}

// scatter implements OpScatter: lane l writes arr[idx.lane(l)] (masked).
func (t *threadCtx) scatter(bi *bInstr, w int) {
	arr := bi.arr
	idxs := t.reg(bi.b)
	v := t.reg(bi.a)
	eb := bi.eb

	lines := &t.memLines
	nl := 0
	for l := 0; l < w; l++ {
		if w > 1 && t.mask&(1<<uint(l)) == 0 {
			continue
		}
		idx := int64(idxs[l])
		if idx < 0 || idx >= int64(len(arr.Data)) {
			t.boundsErr(bi, idx)
			return
		}
		arr.Data[idx] = v[l]
		la := t.e.lineOf(arr.Base + uint64(idx)*eb)
		dup := false
		for i := 0; i < nl; i++ {
			if lines[i] == la {
				dup = true
				break
			}
		}
		if !dup {
			lines[nl] = la
			nl++
		}
	}
	t.scatterCost(nl)
	for i := 0; i < nl; i++ {
		t.touchLineMLP(lines[i], true, bi.mlp)
	}
}

// gatherCost charges the port cost of gathering from nl distinct lines.
// With hardware gather the instruction is line-rate limited; without it,
// every active element pays the extract-load-insert sequence. The costs
// are engine-level constants (looked up once per run), and the charge goes
// to port and classes directly, since its occupancy depends on the live
// mask or the line count.
func (t *threadCtx) gatherCost(nl int) {
	act := t.act
	if act == 0 {
		act = 1
	}
	if t.e.hwGather {
		occ := float64(nl)
		if occ < 1 {
			occ = 1
		}
		t.cost.port[t.e.loadPort] += occ
		t.cost.classes[machine.OpGatherElem]++
		return
	}
	c := t.e.gatherC
	t.cost.port[c.Port] += c.Occupancy(act)
	t.cost.classes[machine.OpGatherElem] += uint64(act)
}

func (t *threadCtx) scatterCost(nl int) {
	act := t.act
	if act == 0 {
		act = 1
	}
	if t.e.hwScatter {
		occ := float64(nl)
		if occ < 1 {
			occ = 1
		}
		t.cost.port[t.e.storePort] += occ
		t.cost.classes[machine.OpScatterElem]++
		return
	}
	c := t.e.scatterC
	t.cost.port[c.Port] += c.Occupancy(act)
	t.cost.classes[machine.OpScatterElem] += uint64(act)
}
