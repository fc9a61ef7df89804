package gap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
)

// TestMemoKeysCostMutatedClone is the machineSig under-fingerprinting
// regression test: a SetCost-mutated clone keeps its preset's name, core
// count, frequency and feature set, so a key built from those alone
// collides with the base preset and serves its stale measurement. The
// fixed key hashes the full model (cost table included) and must measure
// the two machines separately. This fails on the pre-fix machineSig.
func TestMemoKeysCostMutatedClone(t *testing.T) {
	base, err := kernels.ByName("backprojection")
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBench{Benchmark: base}
	m := machine.WestmereX980()
	slow := m.Clone()
	c := slow.Cost(machine.OpGatherElem)
	c.RecipTput *= 4
	slow.SetCost(machine.OpGatherElem, c)
	if slow.Name != m.Name || slow.Cores != m.Cores || slow.Feat != m.Feat {
		t.Fatal("precondition: SetCost clone must keep name/cores/features")
	}

	n := LegalN(base, base.TestN())
	cells := []Cell{
		{Bench: cb, Version: kernels.Pragma, Machine: m, N: n},
		{Bench: cb, Version: kernels.Pragma, Machine: slow, N: n},
	}
	memo := NewMemo()
	ms, err := NewScheduler(1, memo, false).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := cb.prepares.Load(); got != 2 {
		t.Errorf("Prepare called %d times for base + cost-mutated clone, want 2 (memo key collision)", got)
	}
	if memo.Len() != 2 {
		t.Errorf("memo holds %d entries, want 2", memo.Len())
	}
	// backprojection's pragma version gathers; a 4x gather cost must show.
	if ms[0].Seconds() == ms[1].Seconds() {
		t.Error("cost-mutated clone produced identical time — stale measurement served?")
	}
}

// TestMemoKeysFieldMutatedClones extends the collision regression to the
// other mutation channels the ablations use: cache geometry, SIMD width,
// issue width and memory parameters.
func TestMemoKeysFieldMutatedClones(t *testing.T) {
	base, err := kernels.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBench{Benchmark: base}
	m := machine.WestmereX980()
	muts := []func(*machine.Machine){
		func(c *machine.Machine) { c.Caches[0].SizeBytes = 64 << 10 },
		func(c *machine.Machine) { c.VecWidthF32, c.VecWidthF64 = 8, 4 },
		func(c *machine.Machine) { c.IssueWidth = 2 },
		func(c *machine.Machine) { c.Mem.BandwidthGBps = 12 },
	}
	n := LegalN(base, base.TestN())
	cells := []Cell{{Bench: cb, Version: kernels.Pragma, Machine: m, N: n}}
	for _, mut := range muts {
		clone := m.Clone()
		mut(clone)
		cells = append(cells, Cell{Bench: cb, Version: kernels.Pragma, Machine: clone, N: n})
	}
	memo := NewMemo()
	if _, err := NewScheduler(2, memo, false).Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if got := cb.prepares.Load(); got != int64(len(cells)) {
		t.Errorf("Prepare called %d times for %d distinct machine models, want %d",
			got, len(cells), len(cells))
	}
}

// cancellingBench cancels the batch's external context from inside the
// cell and surfaces a *wrapped* cancellation error — the shape the
// scheduler must classify as a cancellation, not a real failure.
type cancellingBench struct {
	kernels.Benchmark
	cancel context.CancelFunc
}

func (b *cancellingBench) Prepare(kernels.Version, *machine.Machine, int) (*kernels.Instance, error) {
	b.cancel()
	return nil, fmt.Errorf("measurement interrupted: %w", context.Canceled)
}

// TestSchedulerClassifiesWrappedCancellation pins the errors.Is
// classification fix: a cell surfacing a wrapped context.Canceled while
// the batch context is cancelled must be reported as a cancellation
// ("cell N cancelled: ..."), not returned verbatim as a cell failure.
func TestSchedulerClassifiesWrappedCancellation(t *testing.T) {
	good, err := kernels.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bad := &cancellingBench{Benchmark: good, cancel: cancel}
	m := machine.WestmereX980()
	n := LegalN(good, good.TestN())

	cells := []Cell{{Bench: bad, Version: kernels.Naive, Machine: m, N: n}}
	_, err = NewScheduler(1, NewMemo(), false).Run(ctx, cells)
	if err == nil {
		t.Fatal("cancelled batch returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not satisfy errors.Is(context.Canceled)", err)
	}
	if !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("wrapped cancellation misreported as a real failure: %v", err)
	}
}

// TestSchedulerDeadlinePropagatesCause checks the unfed-cell path: when
// the parent deadline fires, the batch error carries the deadline cause
// (via context.Cause) so callers can classify it — the daemon maps it to
// HTTP 504.
func TestSchedulerDeadlinePropagatesCause(t *testing.T) {
	m := machine.WestmereX980()
	cells := testCells(t, m)
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()
	_, err := NewScheduler(2, NewMemo(), false).Run(ctx, cells)
	if err == nil {
		t.Fatal("expired deadline did not fail the run")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not satisfy errors.Is(context.DeadlineExceeded)", err)
	}
}

// TestMemoDoesNotCacheCancellation pins the cache-poisoning fix: a cell
// computation abandoned by one request's cancellation must not leave a
// cached error behind for every later request.
func TestMemoDoesNotCacheCancellation(t *testing.T) {
	memo := NewMemo()
	key := cellKey{Bench: "x", Version: "naive", Machine: "m", N: 1}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := memo.do(cancelled, key, func() (*Measurement, error) {
		return nil, fmt.Errorf("cell abandoned: %w", context.Canceled)
	})
	if err == nil {
		t.Fatal("cancelled computation returned no error")
	}
	if memo.Len() != 0 {
		t.Fatalf("cancelled computation left %d cached entries, want 0", memo.Len())
	}

	want := &Measurement{}
	got, err := memo.do(context.Background(), key, func() (*Measurement, error) {
		return want, nil
	})
	if err != nil {
		t.Fatalf("recomputation after cancellation failed: %v", err)
	}
	if got != want {
		t.Error("recomputation did not run fresh")
	}
}

// TestMemoRetriesAfterCancelledWinner checks the waiter path: a caller
// whose own context is live retries the computation instead of
// inheriting another request's cancellation.
func TestMemoRetriesAfterCancelledWinner(t *testing.T) {
	memo := NewMemo()
	key := cellKey{Bench: "y", Version: "naive", Machine: "m", N: 1}
	want := &Measurement{}
	calls := 0
	got, err := memo.do(context.Background(), key, func() (*Measurement, error) {
		calls++
		if calls == 1 {
			return nil, context.Canceled
		}
		return want, nil
	})
	if err != nil {
		t.Fatalf("live-context caller inherited a cancellation: %v", err)
	}
	if got != want || calls != 2 {
		t.Errorf("got %p after %d calls, want retry (2 calls) returning the fresh measurement", got, calls)
	}

	// Real errors stay cached.
	boom := errors.New("boom")
	ekey := cellKey{Bench: "z", Version: "naive", Machine: "m", N: 1}
	ecalls := 0
	f := func() (*Measurement, error) { ecalls++; return nil, boom }
	if _, err := memo.do(context.Background(), ekey, f); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := memo.do(context.Background(), ekey, f); !errors.Is(err, boom) {
		t.Fatalf("second err = %v, want cached boom", err)
	}
	if ecalls != 1 {
		t.Errorf("real error computed %d times, want 1 (cached)", ecalls)
	}
}

// TestCellKeyMatchesCacheFormat pins the worked example of
// docs/CACHE_FORMAT.md: persisted entries and coordinator shards are
// addressed by this exact string, so key derivation must never drift.
func TestCellKeyMatchesCacheFormat(t *testing.T) {
	const want = "ninjagap-cell/v3|blackscholes|naive|WestmereX980|c6|3.33|0776e8ddb14ba579|4096|1|false|false"
	b, err := kernels.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	c := Cell{Bench: b, Version: kernels.Naive, Machine: machine.WestmereX980(), N: 4096}
	if got := c.key(false).String(); got != want {
		t.Errorf("cell key\n got %s\nwant %s", got, want)
	}
	if got := NewScheduler(1, NewMemo(), false).keys([]Cell{c})[0].String(); got != want {
		t.Errorf("scheduler batch key\n got %s\nwant %s", got, want)
	}
}

// TestSchedulerKeysMatchCellKeys checks the once-per-batch derivation:
// a batch mixing a preset, the same pointer again, and same-named clones
// that differ in one field gets, cell for cell, the key the cell derives
// alone — the machine signature is shared by pointer, never by name.
func TestSchedulerKeysMatchCellKeys(t *testing.T) {
	m := machine.WestmereX980()
	feat := m.Feat
	feat.HWGather = true
	slow := m.Clone()
	c := slow.Cost(machine.OpFPDiv)
	c.RecipTput *= 2
	slow.SetCost(machine.OpFPDiv, c)
	var cells []Cell
	for _, mm := range []*machine.Machine{m, m.WithFeatures(feat), m, slow, m.WithCores(2), slow} {
		for _, name := range []string{"blackscholes", "stencil"} {
			b, err := kernels.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []kernels.Version{kernels.Naive, kernels.Algo} {
				cells = append(cells, Cell{Bench: b, Version: v, Machine: mm, N: LegalN(b, b.TestN())})
			}
		}
	}
	s := NewScheduler(1, NewMemo(), true)
	keys := s.keys(cells)
	seen := map[cellKey]bool{}
	for i, c := range cells {
		want := c.key(true)
		if keys[i] != want {
			t.Errorf("cell %d: batch key %s, alone %s", i, keys[i], want)
		}
		seen[keys[i]] = true
	}
	// Four distinct machines x 4 cells.
	if len(seen) != 16 {
		t.Errorf("%d distinct keys, want 16", len(seen))
	}
}

// TestWarmFig4Bytes checks the fig4 diagnostics memo: dispatches served
// from a warm memo render byte-identically to the cold one, the warm ones
// compute nothing, and ResetMemo empties the diagnostics memo along with
// the measurement caches.
func TestWarmFig4Bytes(t *testing.T) {
	cfg := tiny
	cfg.Benches = []string{"treesearch", "libor", "blackscholes"}
	render := func() (text, js string) {
		t.Helper()
		out, err := Dispatch("fig4", cfg)
		if err != nil {
			t.Fatal(err)
		}
		var tb, jb bytes.Buffer
		if err := out.Emit(&tb, "text"); err != nil {
			t.Fatal(err)
		}
		if err := out.Emit(&jb, "json"); err != nil {
			t.Fatal(err)
		}
		return tb.String(), jb.String()
	}
	diagLen := func() int {
		vecReports.Lock()
		defer vecReports.Unlock()
		return len(vecReports.m)
	}

	ResetMemo()
	if n := diagLen(); n != 0 {
		t.Fatalf("diagnostics memo holds %d entries after ResetMemo", n)
	}
	coldText, coldJSON := render()
	if n := diagLen(); n != 1 {
		t.Errorf("diagnostics memo holds %d entries after one fig4, want 1", n)
	}
	_, missesBefore := MemoStats()
	for i := 0; i < 2; i++ {
		text, js := render()
		if text != coldText || js != coldJSON {
			t.Fatalf("warm fig4 dispatch %d differs from the cold one", i+1)
		}
	}
	if _, misses := MemoStats(); misses != missesBefore {
		t.Errorf("warm fig4 dispatches computed %d cells, want 0", misses-missesBefore)
	}
	if !strings.Contains(coldText, "auto-vectorization diagnostics:") {
		t.Error("fig4 text lost its diagnostics section")
	}
	ResetMemo()
	if n := diagLen(); n != 0 {
		t.Errorf("ResetMemo left %d diagnostics entries", n)
	}
}

// BenchmarkWarmDispatch times the daemon's warm read path below HTTP:
// fig4 and bench-export dispatched from a filled memo, computing nothing.
func BenchmarkWarmDispatch(b *testing.B) {
	cfg := Config{Scale: 0.05, Jobs: 1}
	for _, id := range []string{"fig4", "bench-export"} {
		b.Run(id, func(b *testing.B) {
			if _, err := Dispatch(id, cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Dispatch(id, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
