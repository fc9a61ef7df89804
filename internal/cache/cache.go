// Package cache implements a multi-level set-associative data-cache
// simulator with LRU replacement, write-back/write-allocate policy, and a
// stride-detecting hardware prefetcher. The execution engine feeds it the
// kernel's actual dynamic address stream; it reports which level served
// each access and accounts DRAM traffic for the bandwidth model.
package cache

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"ninjagap/internal/machine"
)

// Level identifies where an access was served.
type Level int

// Access service levels. Values above L1 correspond to deeper levels; Mem
// means the access went to DRAM.
const (
	L1 Level = iota + 1
	L2
	L3
	Mem Level = 99
)

// String names the level.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case Mem:
		return "DRAM"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// line is one way of one set: 24 bytes, the two 64-bit words first and
// the 32-bit generation and both flags packed into the third.
type line struct {
	tag      uint64
	lastUse  uint64 // LRU clock
	gen      uint32 // line is valid iff gen equals the level's generation
	dirty    bool
	prefetch bool // filled by prefetcher, not yet demanded
}

type level struct {
	// planes[w][s] is way w of set s: each plane holds one line per set.
	// A set's valid lines are always its first k ways, since a fill takes
	// the first invalid way and only a reset invalidates, so a level holds
	// only as many planes as the fullest set has needed (a fill appends
	// one when every allocated way of its set is valid), and a probe
	// stops at the first invalid way. Planes never move once allocated,
	// so a pointer to a line stays valid as planes are added.
	planes   [][]line
	numSets  int
	assoc    int
	setMask  uint64
	offBits  uint
	tagShift uint   // bits.Len64(setMask), precomputed
	gen      uint32 // current generation; bumping it invalidates every line
	clock    uint64
	stats    LevelStats
	latency  float64
}

// LevelStats aggregates per-level counters.
type LevelStats struct {
	Accesses     uint64
	Hits         uint64
	Misses       uint64
	PrefetchHits uint64 // demand hits on prefetched lines
	Prefetches   uint64 // prefetch fills issued into this level
	Writebacks   uint64 // dirty evictions
}

// MissRate returns misses/accesses (0 when no accesses).
func (s LevelStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

func newLevel(cfg machine.CacheLevel) *level {
	numSets := cfg.SizeBytes / (cfg.Assoc * cfg.LineBytes)
	if numSets == 0 || numSets&(numSets-1) != 0 {
		// Round down to a power of two; Validate on machine should have
		// caught degenerate configs already.
		numSets = 1 << uint(bits.Len(uint(numSets))-1)
	}
	l := &level{
		planes:  make([][]line, 0, cfg.Assoc),
		numSets: numSets,
		assoc:   cfg.Assoc,
		setMask: uint64(numSets - 1),
		offBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		latency: cfg.Latency,
		gen:     1, // so zero-valued lines start invalid
	}
	l.tagShift = uint(bits.Len64(l.setMask))
	return l
}

// reset invalidates every line and zeroes the counters in O(1): lines are
// valid only while their generation matches the level's, so bumping the
// level generation cold-starts the cache without touching the sets. The
// planes stay allocated for the next run. Once every 2^32 resets the
// generation wraps to 0; lines stamped with the generations about to be
// reused would then match again, so the wrap clears every allocated plane
// and restarts at 1.
func (l *level) reset() {
	l.gen++
	if l.gen == 0 {
		for _, p := range l.planes {
			clear(p)
		}
		l.gen = 1
	}
	l.clock = 0
	l.stats = LevelStats{}
}

func (l *level) index(addr uint64) (set uint64, tag uint64) {
	lineAddr := addr >> l.offBits
	return lineAddr & l.setMask, lineAddr >> l.tagShift
}

// find returns set's valid line holding tag, or nil. Valid lines are a
// prefix of the planes, so the walk stops at the first invalid way.
func (l *level) find(set, tag uint64) *line {
	for _, p := range l.planes {
		ln := &p[set]
		if ln.gen != l.gen {
			return nil
		}
		if ln.tag == tag {
			return ln
		}
	}
	return nil
}

// lookup probes the level without a demand: on a hit it refreshes LRU
// and leaves the prefetch and dirty bits alone.
func (l *level) lookup(addr uint64) bool {
	set, tag := l.index(addr)
	l.clock++
	if ln := l.find(set, tag); ln != nil {
		ln.lastUse = l.clock
		return true
	}
	return false
}

// fill inserts a line, evicting LRU. It reports whether a dirty line was
// evicted (needs write-back). The victim is the set's first invalid way,
// else a new plane while the level has fewer than assoc (the way the set
// would fill next), else the least recently used of all assoc ways.
func (l *level) fill(addr uint64, dirty, prefetch bool) (evictedDirty bool, evictedAddr uint64) {
	set, tag := l.index(addr)
	l.clock++
	var v *line
	for _, p := range l.planes {
		ln := &p[set]
		if ln.gen != l.gen {
			v = ln
			break
		}
		if v == nil || ln.lastUse < v.lastUse {
			v = ln
		}
	}
	if v == nil || v.gen == l.gen && len(l.planes) < l.assoc {
		l.planes = append(l.planes, make([]line, l.numSets))
		v = &l.planes[len(l.planes)-1][set]
	}
	if v.gen == l.gen && v.dirty {
		evictedDirty = true
		evictedAddr = ((v.tag << l.tagShift) | set) << l.offBits
	}
	*v = line{tag: tag, gen: l.gen, dirty: dirty, lastUse: l.clock, prefetch: prefetch}
	return evictedDirty, evictedAddr
}

// markDirty sets the dirty bit on a resident line (store hit).
func (l *level) markDirty(addr uint64) {
	if ln := l.find(l.index(addr)); ln != nil {
		ln.dirty = true
	}
}

// probeDemand is the demand probe: one set walk that refreshes LRU,
// claims a prefetched line, and dirties on write. Counters are the
// caller's job.
func (l *level) probeDemand(addr uint64, write bool) (hit, wasPrefetch bool) {
	set, tag := l.index(addr)
	l.clock++
	ln := l.find(set, tag)
	if ln == nil {
		return false, false
	}
	ln.lastUse = l.clock
	wasPrefetch = ln.prefetch
	ln.prefetch = false
	if write {
		ln.dirty = true
	}
	return true, wasPrefetch
}

// Hierarchy simulates one hardware thread's view of the cache hierarchy.
// Private levels are exclusive to the owner; the shared LLC is modeled as a
// per-core capacity partition (capacity interference without coherence
// traffic), which is the granularity the paper's working-set arguments use.
//
// A hierarchy can lead others (see Lead): its L1 and prefetcher then decide
// every follower's L1 hits, and each event below its L1 reaches every
// follower's lower levels too.
type Hierarchy struct {
	levels    []*level
	pf        *prefetcher
	front     Front
	lineBytes int
	dramBytes uint64
	memLat    float64

	followers []*Hierarchy // attached by Lead
	lead      *Hierarchy   // the hierarchy this one follows, if any
	// missLvl and missLat are what a follower's lower levels served its
	// leader's latest L1 demand miss with (see LastMiss).
	missLvl Level
	missLat float64
}

// Config controls hierarchy construction.
type Config struct {
	// ShareFactor divides shared-level capacity (number of co-running
	// cores). 0 or 1 means sole occupancy.
	ShareFactor int
	// Prefetch enables the stride prefetcher.
	Prefetch bool
	// PrefetchDegree is how many lines ahead the prefetcher runs (default 2).
	PrefetchDegree int
}

// Front is what decides which accesses hit L1: the L1 geometry, after the
// shared-capacity split, and the prefetcher, which fills L1. Hierarchies
// with equal fronts see the same L1 hits, prefetch fills and dirty L1
// evictions for one demand stream, whatever lies below their L1; the L1
// latency is not part of it.
type Front struct {
	SizeBytes, Assoc, LineBytes int
	PrefetchDegree              int // 0 without a prefetcher
}

// FrontOf returns the front of the hierarchy New(m, cfg) builds (the
// zero Front for a machine without caches, which fails validation).
func FrontOf(m *machine.Machine, cfg Config) Front {
	if len(m.Caches) == 0 {
		return Front{}
	}
	l1 := effective(m.Caches[0], cfg)
	f := Front{SizeBytes: l1.SizeBytes, Assoc: l1.Assoc, LineBytes: l1.LineBytes}
	if cfg.Prefetch {
		f.PrefetchDegree = cfg.PrefetchDegree
		if f.PrefetchDegree <= 0 {
			f.PrefetchDegree = 2
		}
	}
	return f
}

// effective returns a level's configuration with a shared level's
// capacity divided among cfg.ShareFactor cores.
func effective(cl machine.CacheLevel, cfg Config) machine.CacheLevel {
	if cl.Shared && cfg.ShareFactor > 1 {
		cl.SizeBytes /= cfg.ShareFactor
		if cl.SizeBytes < cl.Assoc*cl.LineBytes {
			cl.SizeBytes = cl.Assoc * cl.LineBytes
		}
	}
	return cl
}

// New builds a hierarchy for the given machine model.
func New(m *machine.Machine, cfg Config) *Hierarchy {
	h := &Hierarchy{memLat: m.Mem.Latency, front: FrontOf(m, cfg)}
	for _, cl := range m.Caches {
		h.levels = append(h.levels, newLevel(effective(cl, cfg)))
	}
	h.lineBytes = m.Caches[0].LineBytes
	if d := h.front.PrefetchDegree; d > 0 {
		h.pf = newPrefetcher(d, h.lineBytes)
	}
	return h
}

// Key identifies the hierarchy New(m, cfg) builds by the inputs New takes:
// every field of every cache level, the DRAM latency, and cfg. Two
// hierarchies with equal keys behave identically after Reset, so callers
// can pool them under it; machine variants that differ only outside the
// caches (costs, features, clock, bandwidth) share one key.
func Key(m *machine.Machine, cfg Config) string {
	b := make([]byte, 0, 32+48*len(m.Caches))
	b = strconv.AppendInt(b, int64(cfg.ShareFactor), 10)
	b = strconv.AppendBool(append(b, '|'), cfg.Prefetch)
	b = strconv.AppendInt(append(b, '|'), int64(cfg.PrefetchDegree), 10)
	b = strconv.AppendFloat(append(b, '|'), m.Mem.Latency, 'g', -1, 64)
	for _, c := range m.Caches {
		b = strconv.AppendQuote(append(b, '|'), c.Name)
		b = strconv.AppendInt(append(b, '/'), int64(c.SizeBytes), 10)
		b = strconv.AppendInt(append(b, '/'), int64(c.Assoc), 10)
		b = strconv.AppendInt(append(b, '/'), int64(c.LineBytes), 10)
		b = strconv.AppendFloat(append(b, '/'), c.Latency, 'g', -1, 64)
		b = strconv.AppendBool(append(b, '/'), c.Shared)
	}
	return string(b)
}

// LineBytes returns the cache line size.
func (h *Hierarchy) LineBytes() int { return h.lineBytes }

// DRAMBytes returns cumulative DRAM traffic (fills plus write-backs).
func (h *Hierarchy) DRAMBytes() uint64 { return h.dramBytes }

// Stats returns a snapshot of per-level statistics, L1 first. A
// follower's L1 statistics are its leader's.
func (h *Hierarchy) Stats() []LevelStats {
	out := make([]LevelStats, len(h.levels))
	for i, l := range h.levels {
		out[i] = l.stats
	}
	if h.lead != nil {
		out[0] = h.lead.levels[0].stats
	}
	return out
}

// Reset cold-starts the hierarchy for reuse: every level is invalidated
// via its generation counter (O(1), no set scans), statistics and DRAM
// traffic are zeroed, the prefetcher forgets its streams, and the
// hierarchy is detached from its leader or followers. A reset hierarchy is
// indistinguishable from a freshly built one.
func (h *Hierarchy) Reset() {
	h.Detach()
	for _, l := range h.levels {
		l.reset()
	}
	h.dramBytes = 0
	h.missLvl, h.missLat = 0, 0
	if h.pf != nil {
		h.pf.reset()
	}
}

// Errors Lead returns.
var (
	ErrFront    = errors.New("cache: follower's L1 front differs from its leader's")
	ErrAttached = errors.New("cache: hierarchy already leads or follows")
)

// Lead attaches fs as h's followers, so that one L1 simulation serves
// them all. A follower's L1 and prefetcher are never probed: h's decide
// its L1 hits, and h forwards every event below its L1, in order, to
// every follower's lower levels and DRAM counter: each demand miss, each
// prefetch fill that missed L1, and each dirty L1 write-back. A follower's
// L1 statistics are h's (Stats), and LastMiss reports what its own lower
// levels served h's latest demand miss with. Attach fresh or Reset
// hierarchies and drive only the leader; each follower then ends in the
// state, statistics and DRAM traffic the same accesses would have left on
// it alone. Lead refuses, attaching nothing, a follower whose Front
// differs from h's (ErrFront), and any hierarchy that already leads or
// follows (ErrAttached).
func (h *Hierarchy) Lead(fs ...*Hierarchy) error {
	if h.lead != nil || len(h.followers) > 0 {
		return ErrAttached
	}
	for i, f := range fs {
		err := ErrAttached
		switch {
		case f == h || f.lead != nil || len(f.followers) > 0:
		case f.front != h.front:
			err = ErrFront
		default:
			f.lead = h
			continue
		}
		for _, g := range fs[:i] {
			g.lead = nil
		}
		return err
	}
	h.followers = append([]*Hierarchy(nil), fs...)
	return nil
}

// Detach ends h's part in a leader/follower group: a follower leaves its
// leader, a leader releases every follower.
func (h *Hierarchy) Detach() {
	if l := h.lead; l != nil {
		l.followers = slices.DeleteFunc(l.followers, func(f *Hierarchy) bool { return f == h })
		h.lead = nil
	}
	for _, f := range h.followers {
		f.lead = nil
	}
	h.followers = nil
}

// LastMiss returns the level and latency that follower h's lower levels
// served its leader's latest L1 demand miss with: the pair a solo h would
// have returned for that access. (An access that hit the leader's L1 hit
// every follower's L1 too.)
func (h *Hierarchy) LastMiss() (Level, float64) { return h.missLvl, h.missLat }

// AccessCost simulates one demand access to addr (the engine splits
// vector accesses into per-line calls, so an access never crosses a line)
// and returns the level that served it and that level's latency. write
// selects store semantics (write-allocate, write-back). It skips the
// prefetcher table for repeated touches of the stream's current line,
// which by construction teach the prefetcher nothing.
func (h *Hierarchy) AccessCost(addr uint64, write bool) (Level, float64) {
	l0 := h.levels[0]
	lineAddr := addr >> l0.offBits
	set, tag := lineAddr&l0.setMask, lineAddr>>l0.tagShift
	l0.stats.Accesses++
	l0.clock++
	var lvl Level
	var lat float64
	if ln := l0.find(set, tag); ln != nil {
		ln.lastUse = l0.clock
		if ln.prefetch {
			ln.prefetch = false
			l0.stats.PrefetchHits++
		}
		if write {
			ln.dirty = true
		}
		l0.stats.Hits++
		lvl, lat = L1, l0.latency
	} else {
		l0.stats.Misses++
		lvl, lat = h.missCost(addr, write)
	}
	if pf := h.pf; pf != nil {
		if s := pf.cachedStream(addr >> 12); s != nil && pf.lineShift != 0 &&
			addr>>pf.lineShift == s.lastLine {
			// Same page, same line as the last observation: observe()
			// would compute a zero delta and return without touching any
			// state, so skip the call.
		} else {
			for _, pa := range pf.observe(addr) {
				h.prefetchFill(pa)
			}
		}
	}
	return lvl, lat
}

// missCost resolves a demand access after the L1 probe missed: the levels
// below L1 serve it (on every follower too), then the line fills L1.
func (h *Hierarchy) missCost(addr uint64, write bool) (Level, float64) {
	lvl, lat := h.lowerDemand(addr, write)
	for _, f := range h.followers {
		f.missLvl, f.missLat = f.lowerDemand(addr, write)
	}
	h.fillL1(addr, write, false)
	return lvl, lat
}

// lowerDemand walks the levels below L1 for a demand access that missed
// L1, with the single-pass set probe (probeDemand folds the LRU refresh,
// prefetch claim and dirty bit into one way scan), and fills the levels
// above the one that served it, down to L2. It returns the serving level
// and its latency.
func (h *Hierarchy) lowerDemand(addr uint64, write bool) (Level, float64) {
	for i := 1; i < len(h.levels); i++ {
		l := h.levels[i]
		l.stats.Accesses++
		if hit, wasPF := l.probeDemand(addr, write); hit {
			l.stats.Hits++
			if wasPF {
				l.stats.PrefetchHits++
			}
			h.fillBelowL1(i, addr, false)
			return Level(i + 1), l.latency
		}
		l.stats.Misses++
	}
	h.dramBytes += uint64(h.lineBytes)
	h.fillBelowL1(len(h.levels), addr, false)
	return Mem, h.memLat
}

// AccessRun simulates n consecutive demand line accesses starting at the
// line-aligned address line0 (the interpreter's unit-stride vector loads and
// stores touch exactly such ascending runs). Side effects are identical to n
// AccessCost calls in ascending line order, followers' included (their
// LastMiss is then the run's last miss). Read miss stalls are charged
// into *stall per line — (latency - l1Lat)/mlp, added in line order — so the
// float accumulation order matches the per-line caller exactly; write misses
// charge no stall (store buffering), and neither do L1 hits (pipelined L1
// latency). Hoisting the level-0 and prefetcher fields out of the per-line
// loop is what the batch buys over repeated AccessCost calls.
func (h *Hierarchy) AccessRun(line0 uint64, n int, write bool, l1Lat, mlp float64, stall *float64) {
	l0 := h.levels[0]
	pf := h.pf
	lb := uint64(h.lineBytes)
	addr := line0
	for k := 0; k < n; k++ {
		lineAddr := addr >> l0.offBits
		set, tag := lineAddr&l0.setMask, lineAddr>>l0.tagShift
		l0.stats.Accesses++
		l0.clock++
		if ln := l0.find(set, tag); ln != nil {
			ln.lastUse = l0.clock
			if ln.prefetch {
				ln.prefetch = false
				l0.stats.PrefetchHits++
			}
			if write {
				ln.dirty = true
			}
			l0.stats.Hits++
		} else {
			l0.stats.Misses++
			_, lat := h.missCost(addr, write)
			if !write {
				if pen := lat - l1Lat; pen > 0 {
					*stall += pen / mlp
				}
			}
		}
		if pf != nil {
			if s := pf.cachedStream(addr >> 12); s != nil && pf.lineShift != 0 &&
				addr>>pf.lineShift == s.lastLine {
				// Same page, same line: observe would be a no-op (see
				// AccessCost).
			} else {
				for _, pa := range pf.observe(addr) {
					h.prefetchFill(pa)
				}
			}
		}
		addr += lb
	}
}

// fillBelowL1 installs the line into levels [1, upto), deepest first, as
// a non-demand (prefetched) line when prefetch is set; evicted dirty lines
// are written back (to DRAM if evicted from the last level).
func (h *Hierarchy) fillBelowL1(upto int, addr uint64, prefetch bool) {
	for i := upto - 1; i >= 1; i-- {
		l := h.levels[i]
		if prefetch {
			l.stats.Prefetches++
		}
		if evDirty, evAddr := l.fill(addr, false, prefetch); evDirty {
			l.stats.Writebacks++
			h.writeback(i+1, evAddr)
		}
	}
}

// fillL1 installs the line into L1, the last level a fill reaches, and
// writes an evicted dirty line back below L1, on every follower too.
func (h *Hierarchy) fillL1(addr uint64, dirty, prefetch bool) {
	l0 := h.levels[0]
	if prefetch {
		l0.stats.Prefetches++
	}
	evDirty, evAddr := l0.fill(addr, dirty, prefetch)
	if !evDirty {
		return
	}
	l0.stats.Writebacks++
	h.writeback(1, evAddr)
	for _, f := range h.followers {
		f.writeback(1, evAddr)
	}
}

// writeback pushes a dirty line into the next level down (or DRAM).
func (h *Hierarchy) writeback(from int, addr uint64) {
	if from >= len(h.levels) {
		h.dramBytes += uint64(h.lineBytes)
		return
	}
	l := h.levels[from]
	if l.lookup(addr) {
		l.markDirty(addr)
		return
	}
	// Write-back miss: install dirty without fetching (simplification:
	// victim lines allocate in the next level).
	evDirty, evAddr := l.fill(addr, true, false)
	if evDirty {
		l.stats.Writebacks++
		h.writeback(from+1, evAddr)
	}
}

// prefetchFill brings a line into L1 (and lower levels) marked as
// prefetched; it consumes DRAM bandwidth if the line was not cached.
func (h *Hierarchy) prefetchFill(addr uint64) {
	if h.levels[0].lookup(addr) {
		return
	}
	h.lowerPrefetch(addr)
	for _, f := range h.followers {
		f.lowerPrefetch(addr)
	}
	h.fillL1(addr, false, true)
}

// lowerPrefetch is a prefetch fill's part below L1: probe the lower levels
// without counting demand statistics, fetch from DRAM if none has the
// line, and fill the levels above the one that had it, down to L2.
func (h *Hierarchy) lowerPrefetch(addr uint64) {
	depth := len(h.levels)
	for i := 1; i < len(h.levels); i++ {
		if h.levels[i].lookup(addr) {
			depth = i
			break
		}
	}
	if depth == len(h.levels) {
		h.dramBytes += uint64(h.lineBytes)
	}
	h.fillBelowL1(depth, addr, true)
}
