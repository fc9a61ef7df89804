package cache

// A reference model of the hierarchy, written for clarity rather than
// speed and sharing no code with it: a set is a list of lines in recency
// order, and the policies the package documents are spelled out one step
// at a time. FuzzHierarchyDifferential checks AccessCost against it access
// by access.

import "ninjagap/internal/machine"

// refLine is one line held by a reference level.
type refLine struct {
	line            uint64 // address >> log2(line size)
	dirty, prefetch bool
}

// refCache is one reference level: sets[s] holds set s's lines, most
// recently used first, at most assoc of them.
type refCache struct {
	sets    [][]refLine
	assoc   int
	lineLog uint // log2 of the line size
	latency float64
	stats   LevelStats
}

// newRefCache sizes a level: a shared level gets 1/share of its capacity,
// but at least one line per way, and the set count is rounded down to a
// power of two.
func newRefCache(c machine.CacheLevel, share int) *refCache {
	size := c.SizeBytes
	if c.Shared && share > 1 {
		size = max(size/share, c.Assoc*c.LineBytes)
	}
	sets := 1
	for 2*sets <= size/(c.Assoc*c.LineBytes) {
		sets *= 2
	}
	r := &refCache{sets: make([][]refLine, sets), assoc: c.Assoc, latency: c.Latency}
	for 1<<r.lineLog < c.LineBytes {
		r.lineLog++
	}
	return r
}

// where returns addr's line number and the index of its set.
func (c *refCache) where(addr uint64) (line, set uint64) {
	line = addr >> c.lineLog
	return line, line % uint64(len(c.sets))
}

// find returns addr's line if the level holds it, after making it the
// most recently used line of its set; else nil.
func (c *refCache) find(addr uint64) *refLine {
	line, s := c.where(addr)
	set := c.sets[s]
	for i, l := range set {
		if l.line == line {
			copy(set[1:i+1], set[:i])
			set[0] = l
			return &set[0]
		}
	}
	return nil
}

// insert makes addr's line the most recently used line of its set,
// evicting the least recently used one when the set is full, and returns
// the address of an evicted dirty line.
func (c *refCache) insert(addr uint64, dirty, prefetch bool) (victim uint64, dirtyVictim bool) {
	line, s := c.where(addr)
	set := c.sets[s]
	if len(set) == c.assoc {
		v := set[len(set)-1]
		set = set[:len(set)-1]
		victim, dirtyVictim = v.line<<c.lineLog, v.dirty
	}
	c.sets[s] = append([]refLine{{line: line, dirty: dirty, prefetch: prefetch}}, set...)
	return victim, dirtyVictim
}

// refHierarchy is the reference for one Hierarchy.
type refHierarchy struct {
	levels    []*refCache // L1 first
	memLat    float64
	lineBytes uint64 // L1's line size, the unit of DRAM traffic
	dram      uint64
	pf        *refPrefetcher // nil with the prefetcher off
}

func newRefHierarchy(m *machine.Machine, cfg Config) *refHierarchy {
	h := &refHierarchy{memLat: m.Mem.Latency, lineBytes: uint64(m.Caches[0].LineBytes)}
	for _, c := range m.Caches {
		h.levels = append(h.levels, newRefCache(c, cfg.ShareFactor))
	}
	if cfg.Prefetch {
		degree := cfg.PrefetchDegree
		if degree <= 0 {
			degree = 2
		}
		h.pf = &refPrefetcher{degree: degree, lineLog: h.levels[0].lineLog, streams: map[uint64]*refStream{}}
	}
	return h
}

// stats is Hierarchy.Stats.
func (h *refHierarchy) stats() []LevelStats {
	out := make([]LevelStats, len(h.levels))
	for i, c := range h.levels {
		out[i] = c.stats
	}
	return out
}

// access is one demand access, AccessCost's reference. The first level
// holding the line serves it; DRAM serves it when none does. Every level
// probed counts an access, and a hit or a miss. The serving copy becomes
// its set's most recently used line, is dirtied by a write, and a demand
// hit on a prefetched line claims it. The line then fills every level
// above the serving one (write-allocate), deepest first, L1 last and
// dirty on a write. Finally the prefetcher observes the access, and each
// line it asks for is prefetched in order.
func (h *refHierarchy) access(addr uint64, write bool) (Level, float64) {
	lvl, lat := Mem, h.memLat
	from := len(h.levels)
	for i, c := range h.levels {
		c.stats.Accesses++
		l := c.find(addr)
		if l == nil {
			c.stats.Misses++
			continue
		}
		c.stats.Hits++
		if l.prefetch {
			l.prefetch = false
			c.stats.PrefetchHits++
		}
		if write {
			l.dirty = true
		}
		lvl, lat, from = Level(i+1), c.latency, i
		break
	}
	if from == len(h.levels) {
		h.dram += h.lineBytes
	}
	h.fill(from, addr, write, false)
	if h.pf != nil {
		for _, pa := range h.pf.observe(addr) {
			h.prefetch(pa)
		}
	}
	return lvl, lat
}

// fill installs addr's line in levels upto-1 down to L1, deepest first;
// with prefetch set, as a prefetched line counted at each level. Only the
// L1 copy of a demand write is dirty. A dirty victim is written back to
// the level below.
func (h *refHierarchy) fill(upto int, addr uint64, write, prefetch bool) {
	for i := upto - 1; i >= 0; i-- {
		c := h.levels[i]
		if prefetch {
			c.stats.Prefetches++
		}
		if v, dirty := c.insert(addr, write && i == 0, prefetch); dirty {
			c.stats.Writebacks++
			h.writeback(i+1, v)
		}
	}
}

// writeback writes a dirty line back into level i, or to DRAM below the
// last level. A copy already there becomes the most recently used line
// of its set and dirty; otherwise the line is installed dirty without a
// fetch, and a dirty victim it evicts is written back further down. A
// write-back counts no access.
func (h *refHierarchy) writeback(i int, addr uint64) {
	if i == len(h.levels) {
		h.dram += h.lineBytes
		return
	}
	c := h.levels[i]
	if l := c.find(addr); l != nil {
		l.dirty = true
		return
	}
	if v, dirty := c.insert(addr, true, false); dirty {
		c.stats.Writebacks++
		h.writeback(i+1, v)
	}
}

// prefetch brings addr's line into L1 as a prefetched line. The first
// level holding it supplies it, DRAM when none does; each level probed
// up to that one refreshes the line's recency if it holds it, and counts
// no access. The line then fills every level above the supplier, as a
// prefetched line. A line L1 already holds fills nothing.
func (h *refHierarchy) prefetch(addr uint64) {
	from := len(h.levels)
	for i, c := range h.levels {
		if c.find(addr) != nil {
			from = i
			break
		}
	}
	if from == len(h.levels) {
		h.dram += h.lineBytes
	}
	h.fill(from, addr, false, true)
}

// refPrefetcher is the stride prefetcher's policy. It keeps one stream
// per 4 KiB page and tracks at most 32 pages, forgetting the one it began
// tracking first (FIFO). A stream remembers its last line and the stride,
// in lines, between its last two distinct lines. An access whose stride
// repeats that one asks for the next degree lines at the stride, stopping
// at a negative line or at the edge of the page.
type refPrefetcher struct {
	degree  int
	lineLog uint
	pages   []uint64 // tracked pages, oldest first
	streams map[uint64]*refStream
}

type refStream struct {
	last, stride int64 // stride is 0 until the stream's second line
}

// observe records a demand access to addr and returns the line addresses
// to prefetch.
func (p *refPrefetcher) observe(addr uint64) []uint64 {
	page, line := addr>>12, int64(addr>>p.lineLog)
	s := p.streams[page]
	if s == nil {
		if len(p.pages) == 32 {
			delete(p.streams, p.pages[0])
			p.pages = p.pages[1:]
		}
		p.pages = append(p.pages, page)
		p.streams[page] = &refStream{last: line}
		return nil
	}
	d := line - s.last
	s.last = line
	if d == 0 {
		return nil
	}
	if d != s.stride {
		s.stride = d
		return nil
	}
	var out []uint64
	for i := int64(1); i <= int64(p.degree); i++ {
		next := line + i*d
		if next < 0 || uint64(next)<<p.lineLog>>12 != page {
			break
		}
		out = append(out, uint64(next)<<p.lineLog)
	}
	return out
}
