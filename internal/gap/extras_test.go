package gap

// Tests of extras: the naive cells on other presets that a batch's shared
// run measures without being asked for them (see Scheduler.plan).

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"ninjagap/internal/exec"
	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
)

// entry returns the measurement the memo holds for key, or nil.
func (mo *Memo) entry(key cellKey) *Measurement {
	mo.mu.Lock()
	e := mo.entries[key]
	mo.mu.Unlock()
	if e == nil {
		return nil
	}
	return e.meas
}

// TestExtrasFillPresetNaiveRow checks that a batch of Westmere naive
// cells, one per suite kernel, leaves every other preset's naive cell in
// the memo with one Prepare per kernel, and returns only the cells it was
// given. Each extra's entry must deep-equal the Measurement of exec.Run
// alone on that preset on fresh arrays.
func TestExtrasFillPresetNaiveRow(t *testing.T) {
	w := machine.WestmereX980()
	var cells []Cell
	var counted []*countingBench
	for _, b := range kernels.All() {
		cb := &countingBench{Benchmark: b}
		counted = append(counted, cb)
		cells = append(cells, Cell{Bench: cb, Version: kernels.Naive, Machine: w, N: LegalN(b, b.TestN())})
	}
	memo := NewMemo()
	ms, err := NewScheduler(2, memo).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		if m.Machine != w.Name || m.Bench != cells[i].Bench.Name() {
			t.Errorf("result %d is %s on %s, want %s on %s", i, m.Bench, m.Machine, cells[i].Bench.Name(), w.Name)
		}
	}
	presets := machine.All()
	if _, misses := memo.Stats(); misses != int64(len(cells)*len(presets)) || memo.Len() != len(cells)*len(presets) {
		t.Errorf("%d misses, %d cached; want %d of each", misses, memo.Len(), len(cells)*len(presets))
	}
	for _, cb := range counted {
		if got := cb.prepares.Load(); got != 1 {
			t.Errorf("%s: %d Prepares, want 1", cb.Name(), got)
		}
	}
	for _, c := range cells {
		for _, p := range presets {
			if p.Name == w.Name {
				continue
			}
			x := c
			x.Machine = p
			got := memo.entry(x.key())
			if got == nil {
				t.Errorf("%s/naive on %s: no extra in the memo", c.Bench.Name(), p.Name)
				continue
			}
			inst, err := c.Bench.Prepare(kernels.Naive, p, c.N)
			if err != nil {
				t.Fatal(err)
			}
			res, err := exec.Run(inst.Prog, inst.Arrays, p, exec.Options{Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			if want := measurement(x, 1, res, inst); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/naive on %s: the extra differs from a solo run\n got %+v\nwant %+v",
					c.Bench.Name(), p.Name, *got.Res, *want.Res)
			}
		}
	}
}

// vectorNaive serves its benchmark's autovec instance as the naive one: a
// naive cell whose program has vector work, so a shared run refuses it.
type vectorNaive struct {
	kernels.Benchmark
	prepares atomic.Int64
}

func (b *vectorNaive) Prepare(v kernels.Version, m *machine.Machine, n int) (*kernels.Instance, error) {
	b.prepares.Add(1)
	if v == kernels.Naive {
		v = kernels.AutoVec
	}
	return b.Benchmark.Prepare(v, m, n)
}

// TestRefusedShareStoresNoExtra checks that only a successful shared run
// stores extras. Serial cells at other versions get none, even the
// autovec and one-thread pragma programs of the while-loop kernels, which
// would share; and a naive cell whose run is refused drops the extras its
// plan gave it, measuring the cells it was given alone.
func TestRefusedShareStoresNoExtra(t *testing.T) {
	w := machine.WestmereX980()
	var cells []Cell
	for _, name := range []string{"treesearch", "mergesort", "volumerender", "nbody"} {
		b, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		n := LegalN(b, b.TestN())
		cells = append(cells,
			Cell{Bench: b, Version: kernels.AutoVec, Machine: w, N: n},
			Cell{Bench: b, Version: kernels.Pragma, Machine: w, N: n, Threads: 1})
	}
	memo := NewMemo()
	if _, err := NewScheduler(2, memo).Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if _, misses := memo.Stats(); misses != int64(len(cells)) || memo.Len() != len(cells) {
		t.Errorf("autovec and one-thread pragma: %d misses, %d cached; want %d of each", misses, memo.Len(), len(cells))
	}

	base, err := kernels.ByName("nbody")
	if err != nil {
		t.Fatal(err)
	}
	vb := &vectorNaive{Benchmark: base}
	cells = naiveCells(vb, []*machine.Machine{w, machine.Core2Quad()})
	memo = NewMemo()
	s := NewScheduler(1, memo)
	items := s.plan(cells, s.keys(cells))
	if len(items) != 1 || len(items[0].extras) != 3 {
		t.Fatalf("plan: %+v; want one group with three extras", items)
	}
	if _, err := s.Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if _, misses := memo.Stats(); misses != 2 || memo.Len() != 2 || vb.prepares.Load() != 2 {
		t.Errorf("refused share: %d misses, %d cached, %d Prepares; want 2, 2, 2", misses, memo.Len(), vb.prepares.Load())
	}
}

// TestVariantGetsNoExtras checks that a preset variant neither gets
// extras nor becomes one. A batch whose only computed member runs on
// Westmere with gather, scatter and FMA computes just that cell, even
// beside the memoized Westmere cell of its group; a batch of WithCores
// cells computes only its own; and a batch of Westmere naive cells stores
// no entry for either variant.
func TestVariantGetsNoExtras(t *testing.T) {
	w := machine.WestmereX980()
	feat := w.Feat
	feat.HWGather, feat.HWScatter, feat.FMA = true, true, true
	hw := w.WithFeatures(feat)
	few := w.WithCores(2)
	base, err := kernels.ByName("stencil")
	if err != nil {
		t.Fatal(err)
	}
	memo := NewMemo()
	s := NewScheduler(2, memo)
	if _, err := s.Run(context.Background(), naiveCells(base, []*machine.Machine{w})); err != nil {
		t.Fatal(err)
	}
	if memo.Len() != 1 {
		t.Fatalf("a lone cell left %d entries, want 1", memo.Len())
	}
	if _, err := s.Run(context.Background(), naiveCells(base, []*machine.Machine{w, hw})); err != nil {
		t.Fatal(err)
	}
	if memo.Len() != 2 {
		t.Errorf("Westmere memoized and its gather/FMA variant computed: %d entries, want 2", memo.Len())
	}
	other, err := kernels.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	cells := append(naiveCells(other, []*machine.Machine{few}), naiveCells(base, []*machine.Machine{few})...)
	if _, err := s.Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if memo.Len() != 4 {
		t.Errorf("two WithCores cells: %d entries, want 4", memo.Len())
	}

	memo = NewMemo()
	cells = naiveCells(other, []*machine.Machine{w, machine.NehalemI7()})
	if _, err := NewScheduler(2, memo).Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if memo.Len() != len(machine.All()) {
		t.Errorf("lbm on two presets: %d entries, want the naive row of %d", memo.Len(), len(machine.All()))
	}
	for _, v := range []*machine.Machine{hw, few} {
		if memo.cached(naiveCells(other, []*machine.Machine{v})[0].key()) {
			t.Errorf("a variant of %s became an extra", v.Name)
		}
	}
}

// TestConcurrentBatchesShareExtras runs two batches at once on one memo,
// each holding the other's cells as extras: Westmere's naive row and
// Core2Quad's. Neither may wait forever on the other's entries, and
// together they must leave each preset's naive cell in the memo exactly
// once, so that the whole row is then served without computing.
func TestConcurrentBatchesShareExtras(t *testing.T) {
	var rows [2][]Cell
	for k, m := range []*machine.Machine{machine.WestmereX980(), machine.Core2Quad()} {
		for _, b := range kernels.All() {
			rows[k] = append(rows[k], naiveCells(b, []*machine.Machine{m})...)
		}
	}
	memo := NewMemo()
	s := NewScheduler(2, memo)
	errs := make(chan error, len(rows))
	for _, cells := range rows {
		go func() {
			_, err := s.Run(context.Background(), cells)
			errs <- err
		}()
	}
	for range rows {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	want := len(kernels.All()) * len(machine.All())
	if memo.Len() != want {
		t.Errorf("%d entries, want the naive row of every kernel: %d", memo.Len(), want)
	}
	_, before := memo.Stats()
	var all []Cell
	for _, b := range kernels.All() {
		all = append(all, naiveCells(b, machine.All())...)
	}
	if _, err := s.Run(context.Background(), all); err != nil {
		t.Fatal(err)
	}
	if _, after := memo.Stats(); after != before {
		t.Errorf("the naive rows computed %d cells again", after-before)
	}
}
