package gap

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ninjagap/internal/machine"
)

// cellKey identifies one measurement in the experiment grid. Two cells
// with the same key are guaranteed to produce identical Measurements
// (inputs are seeded, the simulator is deterministic), so the memo cache
// may serve one for the other. The machine is fingerprinted by a stable
// hash of the complete model — clones keep the preset's name
// (WithCores/WithFeatures/SetCost never rename), so the name alone would
// conflate e.g. the base Westmere with Fig 7's gather/FMA variant or an
// ablation's cost-table edit.
type cellKey struct {
	Bench      string
	Version    string
	Machine    string
	N          int
	Threads    int // 0 = version default
	NoPrefetch bool
	Skip       bool
}

// machineSig fingerprints a machine for memo keying. The trailing
// Machine.Fingerprint hash alone decides identity: it covers everything
// that can change a measurement — name, SIMD/issue widths, cache
// geometry, memory parameters, features and the full cost table — so
// SetCost-mutated or field-edited clones never collide with their base
// preset. The human-readable prefix (name, cores, frequency) is
// deliberately redundant: it is hashed along with the rest, which costs
// nothing for correctness (the fingerprint already includes m.Name, so
// the prefix can never make two distinct models collide or split), and
// it is what makes persisted cache entries greppable by machine when
// debugging byte-diff drift — the decision is documented in
// docs/CACHE_FORMAT.md.
func machineSig(m *machine.Machine) string {
	return fmt.Sprintf("%s|c%d|%.3g|%016x", m.Name, m.Cores, m.FreqGHz, m.Fingerprint())
}

// memoEntry is one cache slot. The sync.Once gives singleflight
// semantics: concurrent workers requesting the same cell block on one
// computation instead of measuring it twice.
type memoEntry struct {
	once sync.Once
	meas *Measurement
	err  error
}

// Memo is a concurrency-safe measurement cache. The zero value is not
// usable; call NewMemo.
type Memo struct {
	mu      sync.Mutex
	entries map[cellKey]*memoEntry
	hits    atomic.Int64
	misses  atomic.Int64

	// disk is the optional persistent layer (see persist.go): consulted
	// on a memory miss before computing, written after every successful
	// computation. Nil means in-memory only.
	disk atomic.Pointer[diskCache]
}

// setDisk attaches (or, with nil, detaches) a persistent layer.
func (mo *Memo) setDisk(d *diskCache) { mo.disk.Store(d) }

// getDisk returns the attached persistent layer, or nil.
func (mo *Memo) getDisk() *diskCache { return mo.disk.Load() }

// NewMemo returns an empty measurement cache.
func NewMemo() *Memo {
	return &Memo{entries: map[cellKey]*memoEntry{}}
}

// do returns the memoized measurement for key, computing it with f on
// first request. Real errors are cached too: a failing cell fails every
// figure that needs it, identically. Context errors are NOT cached — a
// cell abandoned because one request's deadline fired must not poison the
// cache for every later request — so an entry whose computation ended in
// cancellation is dropped, and waiters that coalesced onto it retry with
// a fresh entry (unless their own ctx is also done).
//
// When a persistent layer is attached, a memory miss consults the disk
// before computing (a warm restart serves every previously measured cell
// from disk without touching the engine), and every fresh successful
// computation is persisted. Errors are never persisted — real errors
// stay process-local by design, and context errors are not even cached
// in memory.
func (mo *Memo) do(ctx context.Context, key cellKey, f func() (*Measurement, error)) (*Measurement, error) {
	for {
		mo.mu.Lock()
		e, ok := mo.entries[key]
		if !ok {
			e = &memoEntry{}
			mo.entries[key] = e
		}
		mo.mu.Unlock()
		if ok {
			mo.hits.Add(1)
		} else {
			mo.misses.Add(1)
		}
		e.once.Do(func() {
			disk := mo.getDisk()
			if disk != nil {
				if m, ok := disk.load(key); ok {
					e.meas = m
					return
				}
			}
			e.meas, e.err = f()
			if e.err == nil && disk != nil {
				disk.save(key, e.meas)
			}
		})
		if e.err == nil || !isContextErr(e.err) {
			return e.meas, e.err
		}
		// Cancelled computation: evict the poisoned entry (if it is still
		// the current one) so the cell can be re-measured.
		mo.mu.Lock()
		if mo.entries[key] == e {
			delete(mo.entries, key)
		}
		mo.mu.Unlock()
		if ctx.Err() != nil {
			return nil, e.err
		}
	}
}

// cached reports whether key has an entry in memory, computed or in
// flight, or on the attached disk: a request for it would compute nothing.
func (mo *Memo) cached(key cellKey) bool {
	mo.mu.Lock()
	_, ok := mo.entries[key]
	mo.mu.Unlock()
	if ok {
		return true
	}
	if d := mo.getDisk(); d != nil {
		return d.s.Has(key.String())
	}
	return false
}

// isContextErr reports whether err is (or wraps) a context cancellation
// or deadline error.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Stats reports cache traffic: hits are requests served from (or coalesced
// onto) an existing entry, misses are entries computed.
func (mo *Memo) Stats() (hits, misses int64) {
	return mo.hits.Load(), mo.misses.Load()
}

// Len returns the number of cached cells.
func (mo *Memo) Len() int {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return len(mo.entries)
}

// sharedMemo is the process-wide cache: cells shared between figures
// (fig1's naive/ninja column reappears in fig4, fig8, table1, ...) are
// measured exactly once per process.
var sharedMemo = NewMemo()

// ResetMemo clears the process-wide measurement cache and VecReport's
// diagnostics memo. The benchmark harness calls it between iterations so
// memoization does not turn repeated figure regenerations into cache
// lookups.
func ResetMemo() {
	sharedMemo.mu.Lock()
	sharedMemo.entries = map[cellKey]*memoEntry{}
	sharedMemo.mu.Unlock()
	vecReports.Lock()
	vecReports.m = nil
	vecReports.Unlock()
}

// MemoStats exposes the process-wide cache statistics (hits, misses).
func MemoStats() (hits, misses int64) { return sharedMemo.Stats() }

// MemoLen exposes the process-wide cache size (number of cached cells);
// the measurement daemon's /metrics endpoint reports it.
func MemoLen() int { return sharedMemo.Len() }
