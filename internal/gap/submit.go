package gap

// Cell-identity plumbing for the submission service (internal/submit).
// The service composes its response memo key from cell identities and
// needs to know, before running anything, which cells of a submission
// would actually execute — admission control charges simulated work only
// for those. Both needs are read-only views over the scheduler's own key
// derivation and caches, exported here so the submit package never
// reimplements (and never drifts from) the real key logic.

import "ninjagap/internal/store"

// CellKeyString returns the canonical, schema-qualified key string of a
// cell — the same string the persistent cache addresses entries by. Every
// measured cell runs its check, so no key depends on the ignored flag; it
// stays for callers written when keys carried a check mode.
func CellKeyString(c Cell, _ bool) string {
	return c.key().String()
}

// CellCached reports whether the cell is already present in the
// process-wide memo or the attached persistent cache: running it would
// compute nothing. The probe is advisory (a concurrent request may
// compute the cell between probe and run) but that race only ever
// overcounts pending work, never undercounts a cache hit's cost.
func CellCached(c Cell) bool {
	return sharedMemo.cached(c.key())
}

// PersistentStore returns the blob store behind the attached -cache-dir
// (nil when detached), so other key families — the submission service's
// ninjagap-submit/v1 response memo — persist alongside measurement
// cells. See docs/CACHE_FORMAT.md.
func PersistentStore() *store.Store {
	if d := sharedMemo.getDisk(); d != nil {
		return d.s
	}
	return nil
}
