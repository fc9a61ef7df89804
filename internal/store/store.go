// Package store is a content-addressed on-disk blob store: the
// persistence layer under the experiment memo cache (internal/gap) and
// the submission service's response memo (internal/submit). It maps
// opaque string keys to opaque byte payloads with exactly the
// durability semantics a long-lived measurement cache needs:
//
//   - Writes are atomic: the payload lands in a temp file in the same
//     directory and is renamed into place, so a crashed or concurrent
//     writer can never leave a half-written entry visible. Concurrent
//     writers to the same key are safe — rename is atomic, last writer
//     wins, and (for the measurement cache) both wrote identical bytes
//     anyway.
//   - Reads are corruption-tolerant by contract: a missing, truncated,
//     unreadable or otherwise damaged entry is a MISS, never an error.
//     Integrity of the payload itself is the caller's job (the gap layer
//     re-checks the schema tag and full key recorded inside each entry);
//     the store's job is to never let a bad file take down a run.
//
// Layout: each key is addressed by its SHA-256; entries live at
// <root>/<first two hex bytes>/<rest of the hash>, giving 256 shard
// directories so no single directory grows unboundedly. Keys never
// touch the filesystem namespace directly, so any string (the memo
// cell keys embed '|', '/', spaces...) is a valid key.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// Store is a content-addressed key→blob store rooted at one directory.
// All methods are safe for concurrent use by multiple goroutines and —
// thanks to atomic renames — multiple processes sharing the directory.
type Store struct {
	root string

	hits   atomic.Int64 // Get calls that returned a payload
	misses atomic.Int64 // Get calls that found nothing usable
	puts   atomic.Int64 // successful Put calls
}

// Open prepares a store rooted at dir, creating it if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{root: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.root }

// path maps a key to its entry path: SHA-256 of the key, first hex byte
// pair as the shard directory.
func (s *Store) path(key string) (dir, file string) {
	sum := sha256.Sum256([]byte(key))
	h := hex.EncodeToString(sum[:])
	return filepath.Join(s.root, h[:2]), h[2:]
}

// Get returns the payload stored under key. Any failure — no entry,
// unreadable file, empty file — is reported as a miss (nil, false);
// Get never returns an error, because a damaged cache entry must cost a
// re-computation, not a failed run.
func (s *Store) Get(key string) ([]byte, bool) {
	dir, file := s.path(key)
	b, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil || len(b) == 0 {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return b, true
}

// Has reports whether a non-empty entry exists under key, without
// reading it. It is an admission-control probe (the submission service
// counts which cells a request would actually compute), so it touches
// neither the hit nor the miss counter.
func (s *Store) Has(key string) bool {
	dir, file := s.path(key)
	fi, err := os.Stat(filepath.Join(dir, file))
	return err == nil && fi.Size() > 0
}

// Put stores payload under key atomically: the bytes are written to a
// temp file in the entry's shard directory and renamed into place, so
// readers (in this or any other process) only ever observe complete
// entries. Last concurrent writer wins.
func (s *Store) Put(key string, payload []byte) error {
	dir, file := s.path(key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, file+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, file)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	s.puts.Add(1)
	return nil
}

// Delete removes the entry under key, if present. Used by the cache
// layer to drop entries that decode but fail validation (wrong schema,
// key mismatch), so they stop costing a read on every lookup.
func (s *Store) Delete(key string) {
	dir, file := s.path(key)
	os.Remove(filepath.Join(dir, file))
}

// Len walks the store and counts entries. It is O(entries) — meant for
// tests, metrics snapshots and operator tooling, not hot paths.
func (s *Store) Len() int {
	n := 0
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.root, e.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			// Skip orphaned temp files from crashed writers.
			if !f.IsDir() && !strings.Contains(f.Name(), ".tmp") {
				n++
			}
		}
	}
	return n
}

// Stats reports store traffic since Open: Get hits, Get misses, and
// successful Puts.
func (s *Store) Stats() (hits, misses, puts int64) {
	return s.hits.Load(), s.misses.Load(), s.puts.Load()
}
