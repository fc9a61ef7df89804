package cache

// Reference tests for the way-plane layout. refLevel is the layout the
// planes replaced: assoc contiguous ways per set, all allocated up front,
// a fill taking the set's first invalid way, else its least recently used
// one. A level stored as planes must behave exactly like it while holding
// only the ways some set has filled.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ninjagap/internal/machine"
)

// refLevel is the eager reference: set s occupies lines[s*assoc :
// (s+1)*assoc].
type refLevel struct {
	lines    []line
	assoc    int
	setMask  uint64
	offBits  uint
	tagShift uint
	gen      uint32
	clock    uint64
}

// refOf builds the reference for l's geometry.
func refOf(l *level) *refLevel {
	return &refLevel{
		lines: make([]line, l.numSets*l.assoc), assoc: l.assoc,
		setMask: l.setMask, offBits: l.offBits, tagShift: l.tagShift, gen: 1,
	}
}

func (r *refLevel) index(addr uint64) (set, tag uint64) {
	lineAddr := addr >> r.offBits
	return lineAddr & r.setMask, lineAddr >> r.tagShift
}

func (r *refLevel) ways(set uint64) []line {
	base := set * uint64(r.assoc)
	return r.lines[base : base+uint64(r.assoc)]
}

func (r *refLevel) reset() {
	r.gen++
	if r.gen == 0 {
		clear(r.lines)
		r.gen = 1
	}
	r.clock = 0
}

func (r *refLevel) lookup(addr uint64) bool {
	set, tag := r.index(addr)
	r.clock++
	ways := r.ways(set)
	for i := range ways {
		if ways[i].gen == r.gen && ways[i].tag == tag {
			ways[i].lastUse = r.clock
			return true
		}
	}
	return false
}

func (r *refLevel) fill(addr uint64, dirty, prefetch bool) (bool, uint64) {
	set, tag := r.index(addr)
	r.clock++
	ways := r.ways(set)
	victim := 0
	for i := range ways {
		if ways[i].gen != r.gen {
			victim = i
			break
		}
		if ways[i].lastUse < ways[victim].lastUse {
			victim = i
		}
	}
	v := &ways[victim]
	evDirty, evAddr := false, uint64(0)
	if v.gen == r.gen && v.dirty {
		evDirty, evAddr = true, ((v.tag<<r.tagShift)|set)<<r.offBits
	}
	*v = line{tag: tag, gen: r.gen, dirty: dirty, lastUse: r.clock, prefetch: prefetch}
	return evDirty, evAddr
}

// has reports whether addr's line is valid, touching nothing.
func (r *refLevel) has(addr uint64) bool {
	set, tag := r.index(addr)
	for _, w := range r.ways(set) {
		if w.gen == r.gen && w.tag == tag {
			return true
		}
	}
	return false
}

func (r *refLevel) markDirty(addr uint64) {
	set, tag := r.index(addr)
	ways := r.ways(set)
	for i := range ways {
		if ways[i].gen == r.gen && ways[i].tag == tag {
			ways[i].dirty = true
			return
		}
	}
}

func (r *refLevel) probeDemand(addr uint64, write bool) (bool, bool) {
	set, tag := r.index(addr)
	r.clock++
	ways := r.ways(set)
	for i := range ways {
		if ways[i].gen == r.gen && ways[i].tag == tag {
			ways[i].lastUse = r.clock
			wasPF := ways[i].prefetch
			ways[i].prefetch = false
			if write {
				ways[i].dirty = true
			}
			return true, wasPF
		}
	}
	return false, false
}

// valid returns set's valid lines in way order, failing t unless they are
// a prefix of the set's ways: the invariant the planes rely on.
func (r *refLevel) valid(t *testing.T, set uint64) []line {
	t.Helper()
	ways := r.ways(set)
	k := 0
	for k < len(ways) && ways[k].gen == r.gen {
		k++
	}
	for _, w := range ways[k:] {
		if w.gen == r.gen {
			t.Fatalf("reference set %d: valid lines are not a prefix of its ways", set)
		}
	}
	return ways[:k]
}

// valid returns set's valid lines in way order, failing t unless they
// are a prefix of the planes.
func (l *level) valid(t *testing.T, set uint64) []line {
	t.Helper()
	var out []line
	for w, p := range l.planes {
		if p[set].gen != l.gen {
			for _, q := range l.planes[w:] {
				if q[set].gen == l.gen {
					t.Fatalf("set %d: valid lines are not a prefix of the planes", set)
				}
			}
			break
		}
		out = append(out, p[set])
	}
	return out
}

// planeStream picks the addresses of a level operation mix. Every kind
// spreads over all sets; they differ in how many tags one set sees.
type planeStream int

const (
	oneWay  planeStream = iota // one tag per set: only way 0 ever fills
	fillSet                    // assoc tags per set: sets fill up, nothing evicts
	thrash                     // 2*assoc+3 tags per set: LRU evicts all the time
)

func (s planeStream) String() string {
	return [...]string{"one-way", "fill", "thrash"}[s]
}

// planePair drives a level and its reference with one operation mix and
// checks them against each other after every operation.
type planePair struct {
	t        *testing.T
	l        *level
	r        *refLevel
	maxValid int // the most valid lines any set of the reference has held
}

func (pp *planePair) addr(rng *rand.Rand, s planeStream) uint64 {
	set := uint64(rng.Intn(pp.l.numSets))
	var tag uint64
	switch s {
	case oneWay:
		tag = 5 + set*3
	case fillSet:
		tag = uint64(rng.Intn(pp.l.assoc))
	case thrash:
		tag = uint64(rng.Intn(2*pp.l.assoc + 3))
	}
	return ((tag<<pp.l.tagShift)|set)<<pp.l.offBits | uint64(rng.Intn(64))
}

// step applies one random operation to both levels.
func (pp *planePair) step(rng *rand.Rand, s planeStream, i int) {
	t, l, r := pp.t, pp.l, pp.r
	addr := pp.addr(rng, s)
	var op string
	k := rng.Intn(8)
	if k < 3 && r.has(addr) {
		k = 3 // the hierarchy fills only lines its level lacks
	}
	switch k {
	case 0, 1, 2:
		dirty, pf := rng.Intn(3) == 0, rng.Intn(4) == 0
		op = fmt.Sprintf("fill(dirty=%v, prefetch=%v)", dirty, pf)
		gd, ga := l.fill(addr, dirty, pf)
		wd, wa := r.fill(addr, dirty, pf)
		if gd != wd || ga != wa {
			t.Fatalf("op %d %s %#x: evicted (%v, %#x), reference (%v, %#x)", i, op, addr, gd, ga, wd, wa)
		}
	case 3:
		op = "lookup"
		if g, w := l.lookup(addr), r.lookup(addr); g != w {
			t.Fatalf("op %d lookup %#x: %v, reference %v", i, addr, g, w)
		}
	case 4, 5:
		write := k == 5
		op = fmt.Sprintf("probeDemand(write=%v)", write)
		gh, gp := l.probeDemand(addr, write)
		wh, wp := r.probeDemand(addr, write)
		if gh != wh || gp != wp {
			t.Fatalf("op %d %s %#x: (%v, %v), reference (%v, %v)", i, op, addr, gh, gp, wh, wp)
		}
	default:
		op = "markDirty"
		l.markDirty(addr)
		r.markDirty(addr)
	}
	set, _ := l.index(addr)
	pp.sameSet(set, fmt.Sprintf("op %d %s %#x", i, op, addr))
}

// sameSet checks one set's valid lines and the plane count.
func (pp *planePair) sameSet(set uint64, what string) {
	t := pp.t
	t.Helper()
	got, want := pp.l.valid(t, set), pp.r.valid(t, set)
	if len(got) != len(want) {
		t.Fatalf("%s: set %d holds %d valid lines, reference %d", what, set, len(got), len(want))
	}
	for w := range got {
		if got[w] != want[w] {
			t.Fatalf("%s: set %d way %d is %+v, reference %+v", what, set, w, got[w], want[w])
		}
	}
	pp.maxValid = max(pp.maxValid, len(want))
	if n := len(pp.l.planes); n != pp.maxValid {
		t.Fatalf("%s: %d planes, but the fullest set has held %d valid lines", what, n, pp.maxValid)
	}
}

// sameAll checks every set.
func (pp *planePair) sameAll(what string) {
	pp.t.Helper()
	for s := 0; s < pp.l.numSets; s++ {
		pp.sameSet(uint64(s), what)
	}
}

// reset resets both levels; wrap first sets both generations to their
// last value, as if 2^32-2 resets had passed, so the reset wraps.
func (pp *planePair) reset(wrap bool) {
	if wrap {
		pp.l.gen, pp.r.gen = math.MaxUint32, math.MaxUint32
		pp.sameAll("generation set to its last value")
		pp.l.reset()
		pp.r.reset()
		if pp.l.gen != 1 {
			pp.t.Fatalf("generation %d after the wrap, want 1", pp.l.gen)
		}
		pp.sameAll("after the wrap")
		return
	}
	pp.l.reset()
	pp.r.reset()
	pp.sameAll("after a reset")
}

// TestPlanesMatchEagerReference drives the plane layout and the eager
// reference with seeded operation mixes on 8-, 16- and 12-way levels.
// Each mix runs three phases: from a fresh level (lines stamped with
// generation 1), with the generation at its last value, and after the
// reset that wraps it, when generation 1 is current again; resets fall
// at random inside every phase. Every return value, every set's valid
// lines and the plane count must agree after every operation.
func TestPlanesMatchEagerReference(t *testing.T) {
	for _, assoc := range []int{8, 16, 12} {
		for _, s := range []planeStream{oneWay, fillSet, thrash} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%dway/%v/seed%d", assoc, s, seed), func(t *testing.T) {
					l := newLevel(machine.CacheLevel{SizeBytes: 8 * assoc * 64, Assoc: assoc, LineBytes: 64})
					pp := &planePair{t: t, l: l, r: refOf(l)}
					rng := rand.New(rand.NewSource(seed))
					const perPhase = 3000
					for phase := 0; phase < 3; phase++ {
						switch phase {
						case 1:
							pp.l.gen, pp.r.gen = math.MaxUint32, math.MaxUint32
							pp.sameAll("generation set to its last value")
						case 2:
							pp.reset(true)
						}
						for i := 0; i < perPhase; i++ {
							if rng.Intn(2000) == 0 {
								pp.reset(false)
							}
							pp.step(rng, s, phase*perPhase+i)
						}
						pp.sameAll(fmt.Sprintf("end of phase %d", phase))
					}
					want := map[planeStream]int{oneWay: 1, fillSet: assoc, thrash: assoc}[s]
					if n := len(l.planes); n != want {
						t.Errorf("%v stream left %d planes, want %d", s, n, want)
					}
				})
			}
		}
	}
}

// TestCursorSurvivesPlaneGrowth seats a line cursor on a line in L1's
// first plane, fills another set until L1 has all its planes, and checks
// that the cursor still takes its fast path on the line and agrees with
// AccessCost touch for touch, until the line is evicted and after.
func TestCursorSurvivesPlaneGrowth(t *testing.T) {
	m := machine.WestmereX980()
	hA, hT := New(m, Config{}), New(m, Config{})
	var cur LineCursor
	const setStride = 64 * 64 // L1: 64 sets of 64-byte lines
	const a = 0x100000
	touch := func(addr uint64, write bool, what string) {
		t.Helper()
		gl, gt := hT.TouchLine(&cur, addr, write)
		wl, wt := hA.AccessCost(addr, write)
		if gl != wl || gt != wt {
			t.Fatalf("%s: TouchLine (%v, %g), AccessCost (%v, %g)", what, gl, gt, wl, wt)
		}
	}
	touch(a, false, "seating touch")
	l0 := hT.levels[0]
	set, _ := l0.index(a)
	if len(l0.planes) != 1 || cur.way != &l0.planes[0][set] {
		t.Fatalf("cursor not seated in plane 0 of 1 (%d planes)", len(l0.planes))
	}
	for i := 1; i <= 8; i++ { // eight lines into the next set: all eight planes
		hT.AccessCost(a+64+uint64(i*setStride), i%2 == 0)
		hA.AccessCost(a+64+uint64(i*setStride), i%2 == 0)
	}
	if len(l0.planes) != l0.assoc {
		t.Fatalf("%d L1 planes after filling a set, want %d", len(l0.planes), l0.assoc)
	}
	for i := 0; i < 16; i++ {
		touch(a, i%3 == 0, fmt.Sprintf("touch %d after the planes grew", i))
	}
	if !cur.valid || cur.way != &l0.planes[0][set] || cur.miss != 0 {
		t.Fatalf("cursor left its fast path: valid %v, miss %d", cur.valid, cur.miss)
	}
	for i := 1; i <= 8; i++ { // evict the line from L1
		hT.AccessCost(a+uint64(i*setStride), false)
		hA.AccessCost(a+uint64(i*setStride), false)
	}
	touch(a, false, "touch after eviction")
	touch(a, true, "second touch after eviction")
	sameState(t, "cursor hierarchy", 0, hT, hA)
}

// TestFutureWideHoldsOnePlane walks 64 KiB at unit stride through
// FutureWide's one-thread hierarchy. Its L3 has far more sets than the
// walk has lines, so no set holds two and the level keeps one plane of
// its 16 ways.
func TestFutureWideHoldsOnePlane(t *testing.T) {
	m := machine.FutureWide()
	h := New(m, Config{ShareFactor: 1, Prefetch: m.Feat.HWPrefetch})
	for a := uint64(0); a < 64<<10; a += 64 {
		h.AccessCost(a, false)
	}
	l3 := h.levels[2]
	if l3.assoc != 16 || l3.numSets != 16384 {
		t.Fatalf("L3 geometry %d sets x %d ways, want 16384 x 16", l3.numSets, l3.assoc)
	}
	var lines int
	for _, p := range l3.planes {
		lines += len(p)
	}
	if len(l3.planes) != 1 || lines != 16384 {
		t.Errorf("L3 holds %d planes, %d lines; want 1 plane of 16384 lines (384 KiB, not 6 MiB)", len(l3.planes), lines)
	}
}
