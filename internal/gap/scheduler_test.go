package gap

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
)

// countingBench wraps a suite benchmark and counts Prepare calls, to
// observe how many times the scheduler actually measures a cell.
type countingBench struct {
	kernels.Benchmark
	prepares atomic.Int64
}

func (c *countingBench) Prepare(v kernels.Version, m *machine.Machine, n int) (*kernels.Instance, error) {
	c.prepares.Add(1)
	return c.Benchmark.Prepare(v, m, n)
}

// failingBench errors on Prepare. It has a name of its own: a cell that
// shared its wrapped benchmark's name would share that benchmark's memo
// key, and could be served a good cell's measurement instead of failing.
type failingBench struct {
	kernels.Benchmark
}

var errBoom = errors.New("boom")

func (f *failingBench) Name() string { return "failing" }

func (f *failingBench) Prepare(kernels.Version, *machine.Machine, int) (*kernels.Instance, error) {
	return nil, errBoom
}

func testCells(t *testing.T, m *machine.Machine) []Cell {
	t.Helper()
	var cells []Cell
	for _, name := range []string{"blackscholes", "nbody", "stencil"} {
		b, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		n := LegalN(b, b.TestN())
		for _, v := range []kernels.Version{kernels.Naive, kernels.Pragma, kernels.Ninja} {
			cells = append(cells, Cell{Bench: b, Version: v, Machine: m, N: n})
		}
	}
	return cells
}

// TestParallelMatchesSerial is the determinism contract: the same cells
// through a serial pool and a wide pool (fresh caches each) produce
// identical measurements in identical order.
func TestParallelMatchesSerial(t *testing.T) {
	m := machine.WestmereX980()
	cells := testCells(t, m)

	serial, err := NewScheduler(1, NewMemo()).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewScheduler(8, NewMemo()).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(cells) || len(parallel) != len(cells) {
		t.Fatalf("result lengths %d/%d, want %d", len(serial), len(parallel), len(cells))
	}
	for i := range cells {
		s, p := serial[i], parallel[i]
		if s.Bench != cells[i].Bench.Name() || s.Version != cells[i].Version {
			t.Fatalf("cell %d: result out of order: got %s/%s", i, s.Bench, s.Version)
		}
		if s.Seconds() != p.Seconds() || s.Res.Cycles != p.Res.Cycles {
			t.Errorf("cell %d (%s/%s): serial %.17g s vs parallel %.17g s",
				i, s.Bench, s.Version, s.Seconds(), p.Seconds())
		}
	}
}

// TestMemoSingleflight checks that N concurrent requests for one cell
// measure it exactly once.
func TestMemoSingleflight(t *testing.T) {
	base, err := kernels.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBench{Benchmark: base}
	m := machine.WestmereX980()
	n := LegalN(base, base.TestN())

	cells := make([]Cell, 16)
	for i := range cells {
		cells[i] = Cell{Bench: cb, Version: kernels.Naive, Machine: m, N: n}
	}
	memo := NewMemo()
	ms, err := NewScheduler(8, memo).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := cb.prepares.Load(); got != 1 {
		t.Errorf("Prepare called %d times for 16 identical cells, want 1", got)
	}
	for i := 1; i < len(ms); i++ {
		if ms[i] != ms[0] {
			t.Errorf("cell %d: memo returned distinct measurement", i)
		}
	}
	hits, misses := memo.Stats()
	if misses != 1 || hits != 15 {
		t.Errorf("memo stats hits=%d misses=%d, want 15/1", hits, misses)
	}
}

// TestMemoKeysMachineVariants checks that feature/core clones of a preset
// (which keep its name) do not collide in the cache.
func TestMemoKeysMachineVariants(t *testing.T) {
	// backprojection is the gather-bound kernel: hardware gather changes
	// its time, so a key collision is observable as an identical result.
	base, err := kernels.ByName("backprojection")
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBench{Benchmark: base}
	m := machine.WestmereX980()
	feat := m.Feat
	feat.HWGather, feat.HWScatter, feat.FMA = true, true, true
	hw := m.WithFeatures(feat)
	if hw.Name != m.Name {
		t.Fatalf("precondition: clone renamed to %q", hw.Name)
	}
	n := LegalN(base, base.TestN())
	cells := []Cell{
		{Bench: cb, Version: kernels.Pragma, Machine: m, N: n},
		{Bench: cb, Version: kernels.Pragma, Machine: hw, N: n},
		{Bench: cb, Version: kernels.Pragma, Machine: m.WithCores(2), N: n},
	}
	ms, err := NewScheduler(2, NewMemo()).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := cb.prepares.Load(); got != 3 {
		t.Errorf("Prepare called %d times for 3 distinct machine variants, want 3", got)
	}
	if ms[0].Seconds() == ms[1].Seconds() {
		t.Error("hardware-feature variant produced identical time — key collision?")
	}
}

// TestSchedulerThreadKeyNormalized checks that an explicit Threads equal
// to the version default shares the default cell's cache entry.
func TestSchedulerThreadKeyNormalized(t *testing.T) {
	base, err := kernels.ByName("stencil")
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBench{Benchmark: base}
	m := machine.WestmereX980()
	n := LegalN(base, base.TestN())
	cells := []Cell{
		{Bench: cb, Version: kernels.Algo, Machine: m, N: n},
		{Bench: cb, Version: kernels.Algo, Machine: m, N: n, Threads: m.HWThreads()},
	}
	if _, err := NewScheduler(1, NewMemo()).Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if got := cb.prepares.Load(); got != 1 {
		t.Errorf("default-threads and explicit-all-threads cells measured %d times, want 1", got)
	}
}

// TestSchedulerErrorCancels checks that a failing cell surfaces its error
// and cancels the batch.
func TestSchedulerErrorCancels(t *testing.T) {
	good, err := kernels.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	bad := &failingBench{Benchmark: good}
	m := machine.WestmereX980()
	n := LegalN(good, good.TestN())

	cells := []Cell{{Bench: bad, Version: kernels.Naive, Machine: m, N: n}}
	for i := 0; i < 8; i++ {
		cells = append(cells, Cell{Bench: good, Version: kernels.Naive, Machine: m, N: n})
	}
	_, err = NewScheduler(4, NewMemo()).Run(context.Background(), cells)
	if !errors.Is(err, errBoom) {
		t.Fatalf("got %v, want errBoom", err)
	}
}

// TestSchedulerRespectsContext checks that a pre-cancelled context stops
// the run.
func TestSchedulerRespectsContext(t *testing.T) {
	m := machine.WestmereX980()
	cells := testCells(t, m)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewScheduler(2, NewMemo()).Run(ctx, cells); err == nil {
		t.Fatal("cancelled context did not fail the run")
	}
}

// TestMeasureSharedMemo checks the process-wide cache: the same cell
// requested twice via the public entry point is measured once.
func TestMeasureSharedMemo(t *testing.T) {
	b, err := kernels.ByName("nbody")
	if err != nil {
		t.Fatal(err)
	}
	m := machine.WestmereX980()
	n := LegalN(b, b.TestN())
	m1, err := Measure(b, kernels.Ninja, m, n)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Measure(b, kernels.Ninja, m, n)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("repeated Measure did not return the cached measurement")
	}
	ResetMemo()
	m3, err := Measure(b, kernels.Ninja, m, n)
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m1 {
		t.Error("ResetMemo did not clear the cache")
	}
	if m3.Seconds() != m1.Seconds() {
		t.Error("re-measured cell differs — simulator not deterministic?")
	}
}
