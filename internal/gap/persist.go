package gap

// Persistent measurement cache: the on-disk layer under the in-memory
// memo (see memo.go) and its entry codec. Full format documentation,
// including a worked example entry, lives in docs/CACHE_FORMAT.md.
//
// Key derivation: the canonical key string is
//
//	<schema> "|" bench "|" version "|" machineSig "|" n "|" threads
//	         "|" noprefetch
//
// where machineSig embeds the full-model machine.Fingerprint, so any
// model edit — cost table, cache geometry, features — changes the key
// and old entries simply stop matching. Bumping CellSchema has the same
// effect for format changes: entries written under an older schema are
// never even looked up, so stale formats self-invalidate without a
// migration step. The store addresses entries by SHA-256 of this string;
// each entry also records the string verbatim, and a read whose recorded
// key or schema does not match the request is treated as a miss and
// evicted (hash collision, hand-edited file, or foreign payload — none
// may ever surface as a measurement).
//
// What is persisted: only successful measurements. The in-memory memo
// caches real errors (a failing cell fails every figure identically) but
// those stay process-local: a persisted error could outlive its cause
// (an OOM, a since-fixed bug) and poison every future run. Context
// cancellation errors are cached nowhere, per the memo rules — and the
// structure makes that unrepresentable here: save() is only reached with
// a non-nil Measurement.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"ninjagap/internal/compiler"
	"ninjagap/internal/exec"
	"ninjagap/internal/kernels"
	"ninjagap/internal/store"
)

// CellSchema tags the on-disk measurement-entry format. Bump it
// whenever the entry layout, the key grammar or the meaning of any field
// changes; every existing entry becomes unreachable (not merely invalid),
// which is the intended invalidation mechanism.
const CellSchema = "ninjagap-cell/v4"

// String renders the canonical, schema-qualified key of a cell. This
// exact string is hashed for the on-disk address and recorded inside
// each entry.
func (k cellKey) String() string {
	return fmt.Sprintf("%s|%s|%s|%s|%d|%d|%t",
		CellSchema, k.Bench, k.Version, k.Machine, k.N, k.Threads, k.NoPrefetch)
}

// cellEntry is the serialized form of one successful measurement. It
// carries everything any driver reads from a Measurement: the identity
// fields, the full engine Result, and the two Instance fields consumed
// after execution (SourceStmts for fig8's effort metric, Report for the
// per-run vectorization diagnostics). Prog/Arrays/Check are not stored:
// they exist to *produce* the measurement and are spent by the time an
// entry is written.
type cellEntry struct {
	Schema      string           `json:"schema"`
	Key         string           `json:"key"`
	Bench       string           `json:"bench"`
	Version     string           `json:"version"`
	Machine     string           `json:"machine"`
	N           int              `json:"n"`
	Threads     int              `json:"threads"`
	SourceStmts int              `json:"source_stmts"`
	Report      *compiler.Report `json:"report,omitempty"`
	Result      *exec.Result     `json:"result"`
}

// encodeMeasurement serializes a successful measurement under its
// canonical key.
func encodeMeasurement(key string, m *Measurement) ([]byte, error) {
	e := cellEntry{
		Schema:  CellSchema,
		Key:     key,
		Bench:   m.Bench,
		Version: m.Version.String(),
		Machine: m.Machine,
		N:       m.N,
		Threads: m.Threads,
		Result:  m.Res,
	}
	if m.Inst != nil {
		e.SourceStmts = m.Inst.SourceStmts
		e.Report = m.Inst.Report
	}
	return json.Marshal(&e)
}

// decodeMeasurement deserializes an entry, validating schema and key
// against what the caller asked for. Any mismatch or damage is an
// error; cache callers treat every error as a miss.
func decodeMeasurement(b []byte, wantKey string) (*Measurement, error) {
	var e cellEntry
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("gap: decoding cell entry: %w", err)
	}
	if e.Schema != CellSchema {
		return nil, fmt.Errorf("gap: cell entry schema %q, want %q", e.Schema, CellSchema)
	}
	if e.Key != wantKey {
		return nil, fmt.Errorf("gap: cell entry key mismatch: %q != %q", e.Key, wantKey)
	}
	if e.Result == nil {
		return nil, fmt.Errorf("gap: cell entry has no result")
	}
	v, err := kernels.ParseVersion(e.Version)
	if err != nil {
		return nil, fmt.Errorf("gap: cell entry names unknown version %q", e.Version)
	}
	return &Measurement{
		Bench:   e.Bench,
		Version: v,
		Machine: e.Machine,
		N:       e.N,
		Threads: e.Threads,
		Res:     e.Result,
		// Reconstruct the post-execution view of the instance, the
		// shape retained gives a computed cell: the fields drivers read
		// (SourceStmts, Report) are restored; the consumed ones (Prog,
		// Arrays, Check) stay nil.
		Inst: &kernels.Instance{
			Bench: e.Bench, Version: v, N: e.N,
			SourceStmts: e.SourceStmts, Report: e.Report,
		},
	}, nil
}

// diskCache layers a persistent store under a Memo. All methods are
// safe for concurrent use; corruption and validation failures are
// misses, never errors.
type diskCache struct {
	s *store.Store

	hits   atomic.Int64 // entries served from disk
	stores atomic.Int64 // entries written to disk
}

// load returns the persisted measurement for key, or (nil, false).
// Entries that are present but fail validation (schema drift that
// escaped the key hash, key collision, damage past the JSON layer) are
// deleted so they stop costing a decode on every lookup.
func (d *diskCache) load(key cellKey) (*Measurement, bool) {
	ks := key.String()
	b, ok := d.s.Get(ks)
	if !ok {
		return nil, false
	}
	m, err := decodeMeasurement(b, ks)
	if err != nil {
		d.s.Delete(ks)
		return nil, false
	}
	d.hits.Add(1)
	return m, true
}

// save persists a successful measurement. Errors are deliberately
// swallowed after accounting: a full disk or read-only cache directory
// must degrade to "no persistence", not fail the measurement that was
// already computed.
func (d *diskCache) save(key cellKey, m *Measurement) {
	ks := key.String()
	b, err := encodeMeasurement(ks, m)
	if err != nil {
		return
	}
	if d.s.Put(ks, b) == nil {
		d.stores.Add(1)
	}
}

// SetCacheDir attaches a persistent on-disk cache at dir to the
// process-wide memo: cells measured by any earlier process that shared
// the directory are served from disk (a warm restart), and every cell
// this process computes is persisted for the next one. Pass "" to
// detach. Both cmd/ninjagap (-cache-dir) and cmd/ninjagapd (-cache-dir)
// call this once at startup.
func SetCacheDir(dir string) error {
	if dir == "" {
		sharedMemo.setDisk(nil)
		return nil
	}
	s, err := store.Open(dir)
	if err != nil {
		return err
	}
	sharedMemo.setDisk(&diskCache{s: s})
	return nil
}

// CacheDirStats reports the process-wide persistent cache's traffic:
// cells served from disk, cells written to disk, and whether a cache
// directory is attached at all.
func CacheDirStats() (diskHits, diskStores int64, attached bool) {
	d := sharedMemo.getDisk()
	if d == nil {
		return 0, 0, false
	}
	return d.hits.Load(), d.stores.Load(), true
}

// FormatMemoStats renders the one-line cache-traffic summary the CLI
// prints to stderr when -cache-dir is set (and the CI warm-restart smoke
// job parses): in-memory hits, disk hits, computed cells.
func FormatMemoStats() string {
	hits, misses := sharedMemo.Stats()
	var sb strings.Builder
	sb.WriteString("memo: ")
	sb.WriteString(strconv.FormatInt(hits, 10))
	sb.WriteString(" memory hits, ")
	d := sharedMemo.getDisk()
	var dh int64
	if d != nil {
		dh = d.hits.Load()
	}
	sb.WriteString(strconv.FormatInt(dh, 10))
	sb.WriteString(" disk hits, ")
	sb.WriteString(strconv.FormatInt(misses-dh, 10))
	sb.WriteString(" computed")
	return sb.String()
}
