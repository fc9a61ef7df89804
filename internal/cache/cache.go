// Package cache implements a multi-level set-associative data-cache
// simulator with LRU replacement, write-back/write-allocate policy, and a
// stride-detecting hardware prefetcher. The execution engine feeds it the
// kernel's actual dynamic address stream; it reports which level served
// each access and accounts DRAM traffic for the bandwidth model.
package cache

import (
	"fmt"
	"math/bits"
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

// Result describes how one access was served.
type Result struct {
	Level        Level   // level that had the line (Mem if none)
	Latency      float64 // load-to-use latency of that level in cycles
	PrefetchHit  bool    // line was present only because the prefetcher fetched it
	DRAMBytes    int     // bytes moved to/from DRAM on behalf of this access
	WritebackHit bool    // a dirty line was written back during this access
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
	// lines holds every set contiguously (set s occupies
	// lines[s*assoc : (s+1)*assoc]): one allocation, and a probe touches
	// adjacent memory instead of chasing a per-set slice header.
	lines    []line
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
		lines:   make([]line, numSets*cfg.Assoc),
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
// level generation cold-starts the cache without touching the sets. Once
// every 2^32 resets the generation wraps to 0; lines stamped with the
// generations about to be reused would then match again, so the wrap
// clears every line and restarts at 1.
func (l *level) reset() {
	l.gen++
	if l.gen == 0 {
		clear(l.lines)
		l.gen = 1
	}
	l.clock = 0
	l.stats = LevelStats{}
}

func (l *level) index(addr uint64) (set uint64, tag uint64) {
	lineAddr := addr >> l.offBits
	return lineAddr & l.setMask, lineAddr >> l.tagShift
}

// ways returns one set's lines.
func (l *level) ways(set uint64) []line {
	base := set * uint64(l.assoc)
	return l.lines[base : base+uint64(l.assoc)]
}

// lookup probes the level. On hit it refreshes LRU and returns the line.
func (l *level) lookup(addr uint64, demand bool) (hit bool, wasPrefetch bool) {
	set, tag := l.index(addr)
	l.clock++
	ways := l.ways(set)
	for i := range ways {
		if ways[i].gen == l.gen && ways[i].tag == tag {
			ways[i].lastUse = l.clock
			wasPrefetch = ways[i].prefetch
			if demand {
				ways[i].prefetch = false
			}
			return true, wasPrefetch
		}
	}
	return false, false
}

// fill inserts a line, evicting LRU. It reports whether a dirty line was
// evicted (needs write-back).
func (l *level) fill(addr uint64, dirty, prefetch bool) (evictedDirty bool, evictedAddr uint64) {
	set, tag := l.index(addr)
	l.clock++
	ways := l.ways(set)
	victim := 0
	for i := range ways {
		if ways[i].gen != l.gen {
			victim = i
			break
		}
		if ways[i].lastUse < ways[victim].lastUse {
			victim = i
		}
	}
	v := &ways[victim]
	if v.gen == l.gen && v.dirty {
		evictedDirty = true
		evictedAddr = ((v.tag << l.tagShift) | set) << l.offBits
	}
	*v = line{tag: tag, gen: l.gen, dirty: dirty, lastUse: l.clock, prefetch: prefetch}
	return evictedDirty, evictedAddr
}

// markDirty sets the dirty bit on a resident line (store hit).
func (l *level) markDirty(addr uint64) {
	set, tag := l.index(addr)
	ways := l.ways(set)
	for i := range ways {
		if ways[i].gen == l.gen && ways[i].tag == tag {
			ways[i].dirty = true
			return
		}
	}
}

// probeDemand is the merged demand probe: one set walk that refreshes LRU,
// claims a prefetched line, and dirties on write — the combined effect of
// lookup(addr, true) followed by markDirty(addr), in one pass. Counters are
// the caller's job, exactly as with lookup.
func (l *level) probeDemand(addr uint64, write bool) (hit, wasPrefetch bool) {
	set, tag := l.index(addr)
	l.clock++
	ways := l.ways(set)
	for i := range ways {
		if ways[i].gen == l.gen && ways[i].tag == tag {
			ways[i].lastUse = l.clock
			wasPrefetch = ways[i].prefetch
			ways[i].prefetch = false
			if write {
				ways[i].dirty = true
			}
			return true, wasPrefetch
		}
	}
	return false, false
}

// Hierarchy simulates one hardware thread's view of the cache hierarchy.
// Private levels are exclusive to the owner; the shared LLC is modeled as a
// per-core capacity partition (capacity interference without coherence
// traffic), which is the granularity the paper's working-set arguments use.
type Hierarchy struct {
	levels    []*level
	pf        *prefetcher
	lineBytes int
	dramBytes uint64
	memLat    float64
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

// New builds a hierarchy for the given machine model.
func New(m *machine.Machine, cfg Config) *Hierarchy {
	h := &Hierarchy{memLat: m.Mem.Latency}
	for _, cl := range m.Caches {
		eff := cl
		if cl.Shared && cfg.ShareFactor > 1 {
			eff.SizeBytes = cl.SizeBytes / cfg.ShareFactor
			if eff.SizeBytes < eff.Assoc*eff.LineBytes {
				eff.SizeBytes = eff.Assoc * eff.LineBytes
			}
		}
		h.levels = append(h.levels, newLevel(eff))
	}
	h.lineBytes = m.Caches[0].LineBytes
	if cfg.Prefetch {
		deg := cfg.PrefetchDegree
		if deg <= 0 {
			deg = 2
		}
		h.pf = newPrefetcher(deg, h.lineBytes)
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

// Stats returns a snapshot of per-level statistics, L1 first.
func (h *Hierarchy) Stats() []LevelStats {
	out := make([]LevelStats, len(h.levels))
	for i, l := range h.levels {
		out[i] = l.stats
	}
	return out
}

// Reset cold-starts the hierarchy for reuse: every level is invalidated
// via its generation counter (O(1), no set scans), statistics and DRAM
// traffic are zeroed, and the prefetcher forgets its streams. A reset
// hierarchy is indistinguishable from a freshly built one.
func (h *Hierarchy) Reset() {
	for _, l := range h.levels {
		l.reset()
	}
	h.dramBytes = 0
	if h.pf != nil {
		h.pf.reset()
	}
}

// Access simulates one demand access to addr covering size bytes (the
// engine splits vector accesses into per-line calls, so size never crosses
// a line). write selects store semantics (write-allocate, write-back).
//
// The common case — an L1 hit — is inlined here as a fast path: one set
// probe, an LRU timestamp refresh, and the exact same counter updates the
// general walk performs (one clock tick, one access, one hit), so the
// statistics and replacement state stay bit-identical to the slow path.
func (h *Hierarchy) Access(addr uint64, write bool) Result {
	var res Result
	l0 := h.levels[0]
	lineAddr := addr >> l0.offBits
	set, tag := lineAddr&l0.setMask, lineAddr>>l0.tagShift
	l0.stats.Accesses++
	l0.clock++
	hit := false
	ways := l0.ways(set)
	for i := range ways {
		if ways[i].gen == l0.gen && ways[i].tag == tag {
			ways[i].lastUse = l0.clock
			if ways[i].prefetch {
				ways[i].prefetch = false // first demand touch claims the line
				l0.stats.PrefetchHits++
				res.PrefetchHit = true
			}
			if write {
				ways[i].dirty = true
			}
			hit = true
			break
		}
	}
	if hit {
		l0.stats.Hits++
		res.Level = L1
		res.Latency = l0.latency
	} else {
		l0.stats.Misses++
		res = h.accessFrom(1, addr, write)
	}
	if h.pf != nil {
		for _, pa := range h.pf.observe(addr) {
			h.prefetchFill(pa)
		}
	}
	return res
}

// AccessCost is the engine-facing fast path: identical simulation side
// effects to Access, but it returns only the serving level and its latency
// (two register-sized values instead of a Result struct), and it skips the
// prefetcher table entirely for repeated touches of the stream's current
// line — which by construction teach the prefetcher nothing.
func (h *Hierarchy) AccessCost(addr uint64, write bool) (Level, float64) {
	l0 := h.levels[0]
	lineAddr := addr >> l0.offBits
	set, tag := lineAddr&l0.setMask, lineAddr>>l0.tagShift
	l0.stats.Accesses++
	l0.clock++
	hit := false
	ways := l0.ways(set)
	for i := range ways {
		if ways[i].gen == l0.gen && ways[i].tag == tag {
			ways[i].lastUse = l0.clock
			if ways[i].prefetch {
				ways[i].prefetch = false
				l0.stats.PrefetchHits++
			}
			if write {
				ways[i].dirty = true
			}
			hit = true
			break
		}
	}
	var lvl Level
	var lat float64
	if hit {
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

// missCost resolves an access after the L1 probe missed: the cost-path
// equivalent of accessFrom(1, addr, write), walking L2/L3 with the merged
// single-pass set probe (probeDemand folds the LRU refresh, prefetch claim
// and dirty bit into one way scan) and returning only the serving level and
// latency. Counters, replacement state and DRAM traffic are identical to
// the Result-building walk.
func (h *Hierarchy) missCost(addr uint64, write bool) (Level, float64) {
	for i := 1; i < len(h.levels); i++ {
		l := h.levels[i]
		l.stats.Accesses++
		if hit, wasPF := l.probeDemand(addr, write); hit {
			l.stats.Hits++
			if wasPF {
				l.stats.PrefetchHits++
			}
			h.fillUpTo(i, addr, write)
			return Level(i + 1), l.latency
		}
		l.stats.Misses++
	}
	h.dramBytes += uint64(h.lineBytes)
	h.fillUpTo(len(h.levels), addr, write)
	return Mem, h.memLat
}

// AccessRun simulates n consecutive demand line accesses starting at the
// line-aligned address line0 (the interpreter's unit-stride vector loads and
// stores touch exactly such ascending runs). Side effects are identical to n
// AccessCost calls in ascending line order. Read miss stalls are charged
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
		hit := false
		ways := l0.ways(set)
		for i := range ways {
			if ways[i].gen == l0.gen && ways[i].tag == tag {
				ways[i].lastUse = l0.clock
				if ways[i].prefetch {
					ways[i].prefetch = false
					l0.stats.PrefetchHits++
				}
				if write {
					ways[i].dirty = true
				}
				hit = true
				break
			}
		}
		if hit {
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

// accessFrom walks the hierarchy from level index `from` after the levels
// above it missed; it fills every upper level on the way back.
func (h *Hierarchy) accessFrom(from int, addr uint64, write bool) Result {
	var res Result
	for i := from; i < len(h.levels); i++ {
		l := h.levels[i]
		l.stats.Accesses++
		hit, wasPF := l.lookup(addr, true)
		if hit {
			l.stats.Hits++
			if wasPF {
				l.stats.PrefetchHits++
				res.PrefetchHit = true
			}
			res.Level = Level(i + 1)
			res.Latency = l.latency
			if write {
				l.markDirty(addr)
			}
			// Fill upper levels on a lower-level hit.
			h.fillUpTo(i, addr, write)
			return res
		}
		l.stats.Misses++
	}
	// Missed everywhere: fetch from DRAM.
	res.Level = Mem
	res.Latency = h.memLat
	res.DRAMBytes = h.lineBytes
	h.dramBytes += uint64(h.lineBytes)
	h.fillUpTo(len(h.levels), addr, write)
	return res
}

// fillUpTo installs the line into levels [0, upto); evicted dirty lines are
// written back (to DRAM if evicted from the last level).
func (h *Hierarchy) fillUpTo(upto int, addr uint64, dirty bool) {
	for i := upto - 1; i >= 0; i-- {
		evDirty, evAddr := h.levels[i].fill(addr, dirty && i == 0, false)
		if evDirty {
			h.levels[i].stats.Writebacks++
			h.writeback(i+1, evAddr)
		}
	}
}

// writeback pushes a dirty line into the next level down (or DRAM).
func (h *Hierarchy) writeback(from int, addr uint64) {
	if from >= len(h.levels) {
		h.dramBytes += uint64(h.lineBytes)
		return
	}
	l := h.levels[from]
	if hit, _ := l.lookup(addr, false); hit {
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
	// If already in L1, nothing to do.
	if hit, _ := h.levels[0].lookup(addr, false); hit {
		return
	}
	// Probe deeper levels without counting demand stats.
	depth := len(h.levels)
	for i := 1; i < len(h.levels); i++ {
		if hit, _ := h.levels[i].lookup(addr, false); hit {
			depth = i
			break
		}
	}
	if depth == len(h.levels) {
		h.dramBytes += uint64(h.lineBytes)
	}
	for i := depth - 1; i >= 0; i-- {
		l := h.levels[i]
		l.stats.Prefetches++
		evDirty, evAddr := l.fill(addr, false, true)
		if evDirty {
			l.stats.Writebacks++
			h.writeback(i+1, evAddr)
		}
	}
}
