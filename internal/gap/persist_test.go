package gap

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
	"ninjagap/internal/store"
)

// diskMemo builds a private memo backed by a persistent store at dir,
// returning both so tests can tamper with the store underneath.
func diskMemo(t *testing.T, dir string) (*Memo, *diskCache) {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := &diskCache{s: s}
	m := NewMemo()
	m.setDisk(d)
	return m, d
}

// TestCellEntryRoundTrip checks the persisted-entry codec: every field a
// driver reads out of a Measurement must survive encode/decode exactly,
// including the full float64 result payload.
func TestCellEntryRoundTrip(t *testing.T) {
	b, err := kernels.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	m := machine.WestmereX980()
	n := LegalN(b, b.TestN())
	meas, err := measureCell(context.Background(), Cell{Bench: b, Version: kernels.Pragma, Machine: m, N: n})
	if err != nil {
		t.Fatal(err)
	}
	key := Cell{Bench: b, Version: kernels.Pragma, Machine: m, N: n}.key().String()
	enc, err := encodeMeasurement(key, meas)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeMeasurement(enc, key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Bench != meas.Bench || got.Version != meas.Version ||
		got.Machine != meas.Machine || got.N != meas.N || got.Threads != meas.Threads {
		t.Errorf("identity fields drifted: got %+v", got)
	}
	if got.Res.Seconds != meas.Res.Seconds || got.Res.Cycles != meas.Res.Cycles ||
		got.Res.GFlops != meas.Res.GFlops {
		t.Errorf("result drifted: %.17g s vs %.17g s", got.Res.Seconds, meas.Res.Seconds)
	}
	if got.Inst == nil || got.Inst.SourceStmts != meas.Inst.SourceStmts {
		t.Errorf("SourceStmts not restored (fig8 reads it)")
	}
	// Re-encoding the decoded measurement must be byte-identical — this is
	// what makes disk-served and computed cells indistinguishable in output.
	enc2, err := encodeMeasurement(key, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Error("re-encoded entry differs from original encoding")
	}
}

// TestMemoEntryHasDiskShape checks that a computed measurement keeps only
// what the disk keeps: no program, arrays or check closure stay reachable
// from the memo, and its Inst equals the one decoded from its entry.
func TestMemoEntryHasDiskShape(t *testing.T) {
	b, err := kernels.ByName("stencil")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []kernels.Version{kernels.AutoVec, kernels.Ninja} {
		c := Cell{Bench: b, Version: v, Machine: machine.WestmereX980(), N: LegalN(b, b.TestN())}
		meas, err := NewScheduler(1, NewMemo()).Run(context.Background(), []Cell{c})
		if err != nil {
			t.Fatal(err)
		}
		inst := meas[0].Inst
		if inst.Arrays != nil || inst.Prog != nil || inst.Check != nil {
			t.Errorf("%s: memoized Inst keeps Arrays=%v Prog=%v Check=%v", v,
				inst.Arrays != nil, inst.Prog != nil, inst.Check != nil)
		}
		key := c.key().String()
		enc, err := encodeMeasurement(key, meas[0])
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeMeasurement(enc, key)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Inst, inst) {
			t.Errorf("%s: Inst differs from its disk round trip\n got %+v\nwant %+v", v, got.Inst, inst)
		}
	}
}

// TestDiskCacheWarmRestart is the warm-restart contract at the memo
// level: a fresh memo (a new process) over the same cache directory
// serves every previously measured cell from disk and computes nothing.
func TestDiskCacheWarmRestart(t *testing.T) {
	dir := t.TempDir()
	base, err := kernels.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBench{Benchmark: base}
	m := machine.WestmereX980()
	n := LegalN(base, base.TestN())
	cells := []Cell{
		{Bench: cb, Version: kernels.Naive, Machine: m, N: n},
		{Bench: cb, Version: kernels.Ninja, Machine: m, N: n},
	}

	memo1, d1 := diskMemo(t, dir)
	cold, err := NewScheduler(2, memo1).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := cb.prepares.Load(); got != 2 {
		t.Fatalf("cold run prepared %d cells, want 2", got)
	}
	if stores := d1.stores.Load(); stores != 2 {
		t.Fatalf("cold run persisted %d entries, want 2", stores)
	}

	// "Restart": fresh memo, fresh store handle, same directory.
	memo2, d2 := diskMemo(t, dir)
	warm, err := NewScheduler(2, memo2).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := cb.prepares.Load(); got != 2 {
		t.Errorf("warm run re-measured: %d total prepares, want 2", got)
	}
	if hits := d2.hits.Load(); hits != 2 {
		t.Errorf("warm run took %d disk hits, want 2", hits)
	}
	for i := range cells {
		key := cells[i].key().String()
		a, err := encodeMeasurement(key, cold[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := encodeMeasurement(key, warm[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("cell %d: disk-served measurement differs from computed one", i)
		}
	}
}

// corruptionCase reruns one cell against a tampered cache directory and
// asserts the damage degrades to a recompute (a miss), never an error or
// a wrong measurement.
func corruptionCase(t *testing.T, tamper func(t *testing.T, s *store.Store, key string, entry []byte)) {
	t.Helper()
	dir := t.TempDir()
	base, err := kernels.ByName("stencil")
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBench{Benchmark: base}
	m := machine.WestmereX980()
	n := LegalN(base, base.TestN())
	cell := Cell{Bench: cb, Version: kernels.Naive, Machine: m, N: n}
	key := cell.key().String()

	memo1, _ := diskMemo(t, dir)
	cold, err := NewScheduler(1, memo1).Run(context.Background(), []Cell{cell})
	if err != nil {
		t.Fatal(err)
	}

	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := s.Get(key)
	if !ok {
		t.Fatal("cold run left no entry on disk")
	}
	tamper(t, s, key, entry)

	memo2, d2 := diskMemo(t, dir)
	warm, err := NewScheduler(1, memo2).Run(context.Background(), []Cell{cell})
	if err != nil {
		t.Fatalf("tampered cache surfaced an error instead of a miss: %v", err)
	}
	if hits := d2.hits.Load(); hits != 0 {
		t.Errorf("tampered entry served as a disk hit")
	}
	if got := cb.prepares.Load(); got != 2 {
		t.Errorf("prepared %d times, want 2 (cold + recompute after corruption)", got)
	}
	if cold[0].Res.Seconds != warm[0].Res.Seconds {
		t.Errorf("recomputed measurement differs from the original")
	}
	// The recompute must have repaired the cache: a third fresh memo now
	// serves the cell from disk again.
	memo3, d3 := diskMemo(t, dir)
	if _, err := NewScheduler(1, memo3).Run(context.Background(), []Cell{cell}); err != nil {
		t.Fatal(err)
	}
	if hits := d3.hits.Load(); hits != 1 {
		t.Errorf("cache not repaired after recompute: %d disk hits, want 1", hits)
	}
}

// TestDiskCacheTruncatedEntry: an entry cut mid-JSON (torn write, full
// disk) is a miss.
func TestDiskCacheTruncatedEntry(t *testing.T) {
	corruptionCase(t, func(t *testing.T, s *store.Store, key string, entry []byte) {
		if err := s.Put(key, entry[:len(entry)/2]); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDiskCacheWrongSchema: an entry whose schema tag names another
// format version is a miss even though its JSON is intact.
func TestDiskCacheWrongSchema(t *testing.T) {
	corruptionCase(t, func(t *testing.T, s *store.Store, key string, entry []byte) {
		tampered := bytes.Replace(entry, []byte(CellSchema), []byte("ninjagap-cell/v0"), 1)
		if bytes.Equal(tampered, entry) {
			t.Fatal("schema tag not found in entry")
		}
		if err := s.Put(key, tampered); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDiskCacheKeyMismatch: an intact entry whose recorded key names a
// different cell (hash collision, hand-copied file) is a miss — the
// recorded key decides, not the address the entry sits at.
func TestDiskCacheKeyMismatch(t *testing.T) {
	corruptionCase(t, func(t *testing.T, s *store.Store, key string, entry []byte) {
		var e cellEntry
		if err := json.Unmarshal(entry, &e); err != nil {
			t.Fatal(err)
		}
		e.Key = cellKey{Bench: "other", Version: "naive", Machine: "m", N: 1}.String()
		tampered, err := json.Marshal(&e)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(key, tampered); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDiskCacheNeverPersistsErrors pins the persistence rules: context
// cancellations are cached nowhere, real errors are cached in memory
// only — neither may ever reach disk.
func TestDiskCacheNeverPersistsErrors(t *testing.T) {
	memo, d := diskMemo(t, t.TempDir())
	key := cellKey{Bench: "x", Version: "naive", Machine: "m", N: 1}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := memo.do(ctx, key, func() (*Measurement, error) {
		return nil, ctx.Err()
	}); err == nil {
		t.Fatal("cancelled computation returned no error")
	}
	if n := d.s.Len(); n != 0 {
		t.Errorf("context error persisted: %d entries on disk", n)
	}
	if memo.Len() != 0 {
		t.Error("context error cached in memory")
	}

	calls := 0
	key2 := cellKey{Bench: "y", Version: "naive", Machine: "m", N: 1}
	if _, err := memo.do(context.Background(), key2, func() (*Measurement, error) {
		calls++
		return nil, errBoom
	}); err == nil {
		t.Fatal("failing computation returned no error")
	}
	// The real error IS memoized in memory (a failing cell fails every
	// figure identically) ...
	if _, err := memo.do(context.Background(), key2, func() (*Measurement, error) {
		calls++
		return nil, nil
	}); err == nil {
		t.Error("cached real error not served on second request")
	}
	if calls != 1 {
		t.Errorf("failing cell computed %d times, want 1 (memoized)", calls)
	}
	// ... but never persisted.
	if n := d.s.Len(); n != 0 {
		t.Errorf("real error persisted: %d entries on disk", n)
	}
}

// TestColdVsWarmBenchExportBytes is the end-to-end acceptance check at
// the driver layer: a bench-export run, a memory wipe (simulated
// restart), and a second run over the same cache directory must produce
// byte-identical output with every cell served from disk.
func TestColdVsWarmBenchExportBytes(t *testing.T) {
	ResetMemo()
	if err := SetCacheDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := SetCacheDir(""); err != nil {
			t.Fatal(err)
		}
		ResetMemo()
	}()

	cfg := Config{Scale: 0.01, Benches: []string{"blackscholes", "stencil"}, Jobs: 2}
	run := func() []byte {
		t.Helper()
		out, err := Dispatch("bench-export", cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := out.Emit(&buf, "json"); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	cold := run()
	_, stores0, attached := CacheDirStats()
	if !attached || stores0 == 0 {
		t.Fatalf("cold run persisted nothing (attached=%v stores=%d)", attached, stores0)
	}

	ResetMemo() // drop the in-memory layer; the disk survives the "restart"
	warm := run()
	if !bytes.Equal(cold, warm) {
		t.Error("warm bench-export differs from cold run byte-for-byte")
	}
	hits1, stores1, _ := CacheDirStats()
	if hits1 != stores0 {
		t.Errorf("warm run took %d disk hits, want %d (every persisted cell)", hits1, stores0)
	}
	if stores1 != stores0 {
		t.Errorf("warm run persisted %d new entries — it recomputed cells", stores1-stores0)
	}
}
