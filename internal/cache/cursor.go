package cache

// LineCursor is a one-line fast path over AccessCost for one address
// stream (the engine keeps one per scalar load or store instruction): it
// caches the L1 way that served the stream's last touch so repeated
// touches of the same line skip the set probe and the prefetcher table
// entirely. The fast path fires only when its effects are provably
// identical to AccessCost's L1-hit-with-prefetcher-skip branch; every other
// situation (line crossing, eviction, prefetched line, prefetcher state that
// would advance) falls back to AccessCost itself, so simulated statistics,
// replacement state and DRAM traffic stay bit-identical to per-access
// simulation.
type LineCursor struct {
	lineAddr uint64
	tag      uint64
	way      *line
	valid    bool
	// miss balances general-path touches against fast-path hits: a miss
	// increments it, a hit decrements it. Streams that mostly hit (unit
	// strides, line-local walks) hover near zero and keep reseating after
	// the occasional line change; streams whose hits are rare or absent
	// (pointer chasing: a tree descent re-touches only the root's line a
	// few times per query) climb past the threshold and stop paying the
	// reseat probe, retrying only rarely — the cursor then costs two
	// compares over a bare AccessCost call. A full reset on hit would keep
	// the rare-hit streams inside the reseat window indefinitely.
	miss uint8
}

// pfWouldSkip reports whether AccessCost would skip the prefetcher update
// for addr: no prefetcher at all, or the addr's page stream is in the
// direct-mapped stream cache and addr stays on the stream's current line
// (observe would compute a zero delta and return without touching state).
func (h *Hierarchy) pfWouldSkip(addr uint64) bool {
	pf := h.pf
	if pf == nil {
		return true
	}
	if pf.lineShift == 0 {
		return false
	}
	s := pf.cachedStream(addr >> 12)
	return s != nil && addr>>pf.lineShift == s.lastLine
}

// TouchLine performs one demand access to lineAddr (a line-aligned address)
// through cur. Side effects and the returned (level, latency) pair are
// bit-identical to AccessCost(lineAddr, write).
func (h *Hierarchy) TouchLine(cur *LineCursor, lineAddr uint64, write bool) (Level, float64) {
	if cur.valid && lineAddr == cur.lineAddr {
		l0 := h.levels[0]
		w := cur.way
		// The cached way must still hold this line as a demand-claimed
		// (non-prefetch) resident, and the prefetcher must be in the state
		// AccessCost skips; then an access is exactly: one L1 probe that
		// hits, refreshes LRU, and dirties on write.
		if w.gen == l0.gen && w.tag == cur.tag && !w.prefetch && h.pfWouldSkip(lineAddr) {
			if cur.miss > 0 {
				cur.miss--
			}
			l0.stats.Accesses++
			l0.clock++
			w.lastUse = l0.clock
			if write {
				w.dirty = true
			}
			l0.stats.Hits++
			return L1, l0.latency
		}
	}
	lvl, lat := h.AccessCost(lineAddr, write)
	cur.miss++
	if cur.miss < 16 || cur.miss&127 == 0 {
		cur.reseat(h, lineAddr)
	} else {
		cur.valid = false
	}
	return lvl, lat
}

// reseat points the cursor at lineAddr's L1 way after a general access
// installed (or refreshed) the line.
func (cur *LineCursor) reseat(h *Hierarchy, lineAddr uint64) {
	l0 := h.levels[0]
	set, tag := l0.index(lineAddr)
	cur.lineAddr, cur.tag, cur.valid = lineAddr, tag, false
	ways := l0.ways(set)
	for i := range ways {
		if ways[i].gen == l0.gen && ways[i].tag == tag {
			cur.way = &ways[i]
			cur.valid = true
			return
		}
	}
}
