package gap

// Tests of shared serial runs at the scheduler: the Prepare contract
// grouping relies on, bit-identity of grouped cells against the raw-Result
// goldens (recorded before cells were grouped), and the memo accounting
// of groups.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
	"ninjagap/internal/vm"
)

// groupMachines is every machine Fig 2 or a submission groups, plus
// Fig 7's gather/scatter+FMA Westmere.
func groupMachines() []*machine.Machine {
	w := machine.WestmereX980()
	feat := w.Feat
	feat.HWGather, feat.HWScatter, feat.FMA = true, true, true
	return append(machine.All(), w.WithFeatures(feat))
}

const mixedSrc = `kernel mixed(f32 restrict x[300], f32 restrict y[300]) {
	for (i = 0; i < 300; i++) {
		if (x[i] < 0.5) {
			y[i] = 3 * x[i] + 1;
		} else {
			y[i] = x[i] * x[i];
		}
	}
}`

// TestPrepareMachineIndependent pins the contract a shared run relies
// on: a group prepares its kernel once, on its first machine, and runs
// that program for every member. So at every version but Ninja, Prepare
// must build the same program (as the vm printer prints it) and the same
// input arrays on every machine: every suite kernel at test size, and a
// kernel submitted as source.
func TestPrepareMachineIndependent(t *testing.T) {
	sub, err := kernels.FromSource(mixedSrc)
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		b  kernels.Benchmark
		v  kernels.Version
		n  int
		id string
	}
	var jobs []job
	for _, b := range kernels.All() {
		for _, v := range kernels.Versions() {
			if v != kernels.Ninja {
				jobs = append(jobs, job{b, v, LegalN(b, b.TestN()), b.Name() + "/" + v.String()})
			}
		}
	}
	for _, v := range kernels.SubmitVersions() {
		jobs = append(jobs, job{sub, v, sub.DefaultN(), "submitted/" + v.String()})
	}
	ms := groupMachines()
	for _, j := range jobs {
		ref, err := j.b.Prepare(j.v, ms[0], j.n)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Prog.Dump()
		for _, m := range ms[1:] {
			inst, err := j.b.Prepare(j.v, m, j.n)
			if err != nil {
				t.Fatal(err)
			}
			if got := inst.Prog.Dump(); got != want {
				t.Errorf("%s: program on %s differs from %s's\n--- %s ---\n%s\n--- %s ---\n%s",
					j.id, m.Name, ms[0].Name, m.Name, got, ms[0].Name, want)
			}
			if err := sameArrays(inst.Arrays, ref.Arrays); err != nil {
				t.Errorf("%s: inputs on %s differ from %s's: %v", j.id, m.Name, ms[0].Name, err)
			}
		}
	}
}

// sameArrays reports how two bound input sets differ: names, element
// sizes or any element's bits.
func sameArrays(a, b map[string]*vm.Array) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d arrays vs %d", len(a), len(b))
	}
	for name, x := range a {
		y := b[name]
		if y == nil || x.ElemBytes != y.ElemBytes || len(x.Data) != len(y.Data) {
			return fmt.Errorf("array %q missing or reshaped", name)
		}
		for i := range x.Data {
			if math.Float64bits(x.Data[i]) != math.Float64bits(y.Data[i]) {
				return fmt.Errorf("%s[%d] = %v vs %v", name, i, x.Data[i], y.Data[i])
			}
		}
	}
	return nil
}

// goldenBlock returns the two lines resultGoldenCheck wrote for one cell
// (its header and its raw Result) from a committed golden file.
func goldenBlock(t *testing.T, file, header string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	for i := 0; i+1 < len(lines); i++ {
		if lines[i] == header {
			return lines[i] + "\n" + lines[i+1] + "\n"
		}
	}
	t.Fatalf("%s has no cell %q", file, header)
	return ""
}

// TestGroupedNaiveMatchGoldens runs every suite kernel's naive cell on
// all five presets as one batch, serially and on two workers, so that
// each kernel runs once for all five machines. Every cell must print
// exactly the raw Result committed in the goldens: the machine files for
// four presets, the kernel files for Westmere. The batch must also have
// shared: one Prepare per kernel, the while-loop kernels (treesearch,
// mergesort, volumerender) included.
func TestGroupedNaiveMatchGoldens(t *testing.T) {
	for _, jobs := range []int{1, 2} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			var cells []Cell
			var counted []*countingBench
			for _, b := range kernels.All() {
				cb := &countingBench{Benchmark: b}
				counted = append(counted, cb)
				n := SizeFor(b, Config{Scale: 0.05})
				for _, m := range machine.All() {
					cells = append(cells, Cell{Bench: cb, Version: kernels.Naive, Machine: m, N: n})
				}
			}
			memo := NewMemo()
			ms, err := NewScheduler(jobs, memo).Run(context.Background(), cells)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range cells {
				got := fmt.Sprintf("%s/%s n=%d threads=%d\n%+v\n",
					c.Bench.Name(), c.Version, c.N, ms[i].Threads, *ms[i].Res)
				file := "machine_" + c.Machine.Name + "_smoke.golden.txt"
				if c.Machine.Name == machine.WestmereX980().Name {
					file = c.Bench.Name() + "_smoke.golden.txt"
				}
				header := strings.SplitN(got, "\n", 2)[0]
				if want := goldenBlock(t, file, header); got != want {
					t.Errorf("%s on %s diverged from %s\n got: %s\nwant: %s", header, c.Machine.Name, file, got, want)
				}
			}
			for _, cb := range counted {
				if got := cb.prepares.Load(); got != 1 {
					t.Errorf("%s: %d Prepares for %d machines, want 1", cb.Name(), got, len(machine.All()))
				}
			}
			if _, misses := memo.Stats(); misses != int64(len(cells)) {
				t.Errorf("%d memo misses for %d new cells", misses, len(cells))
			}
		})
	}
}

// naiveCells returns bench's naive cell on each machine at test size.
func naiveCells(b kernels.Benchmark, ms []*machine.Machine) []Cell {
	cells := make([]Cell, len(ms))
	for i, m := range ms {
		cells[i] = Cell{Bench: b, Version: kernels.Naive, Machine: m, N: LegalN(b, b.TestN())}
	}
	return cells
}

// TestLoneSerialCellComputesOne checks that a batch groups only cells it
// was given: a lone naive cell computes that cell and caches nothing else.
func TestLoneSerialCellComputesOne(t *testing.T) {
	base, err := kernels.ByName("nbody")
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBench{Benchmark: base}
	memo := NewMemo()
	cells := naiveCells(cb, []*machine.Machine{machine.Core2Quad()})
	if _, err := NewScheduler(2, memo).Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if _, misses := memo.Stats(); misses != 1 || memo.Len() != 1 || cb.prepares.Load() != 1 {
		t.Errorf("lone cell: %d misses, %d cached, %d Prepares; want 1, 1, 1", misses, memo.Len(), cb.prepares.Load())
	}
}

// TestGroupSkipsMemoizedMember checks the plan's cache probe: with
// Westmere's naive cell already memoized, a batch of the kernel's naive
// cells on all five presets computes the other four with one shared run,
// each counted as a memo miss, and serves Westmere's from the memo.
func TestGroupSkipsMemoizedMember(t *testing.T) {
	base, err := kernels.ByName("complexconv")
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBench{Benchmark: base}
	memo := NewMemo()
	s := NewScheduler(2, memo)
	first, err := s.Run(context.Background(), naiveCells(cb, []*machine.Machine{machine.WestmereX980()}))
	if err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := memo.Stats()
	cells := naiveCells(cb, machine.All())
	items := s.plan(cells, s.keys(cells))
	if len(items) != 2 {
		t.Fatalf("plan: %d items, want a group of four and Westmere alone: %+v", len(items), items)
	}
	for _, it := range items {
		for _, i := range it.group {
			if cells[i].Machine.Name == machine.WestmereX980().Name {
				t.Errorf("plan grouped the memoized Westmere cell: %+v", items)
			}
		}
	}
	ms, err := s.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := memo.Stats()
	if misses-misses0 != 4 || hits-hits0 != 1 {
		t.Errorf("second batch: %d misses, %d hits; want 4 and 1", misses-misses0, hits-hits0)
	}
	if got := cb.prepares.Load(); got != 2 {
		t.Errorf("%d Prepares; want 2 (Westmere alone, then one for the group of four)", got)
	}
	for i, c := range cells {
		if c.Machine.Name == machine.WestmereX980().Name && ms[i] != first[0] {
			t.Error("Westmere's memoized cell was measured again")
		}
	}
}

// cancelOnPrepare cancels a context from inside a successful Prepare, so
// the cancellation lands between a group's Prepare and its shared run.
type cancelOnPrepare struct {
	kernels.Benchmark
	cancel context.CancelFunc
}

func (c *cancelOnPrepare) Prepare(v kernels.Version, m *machine.Machine, n int) (*kernels.Instance, error) {
	c.cancel()
	return c.Benchmark.Prepare(v, m, n)
}

// TestGroupCancelLeavesNoneCached checks that a context cancelled while a
// group is being measured fails the batch with the context error and
// leaves no member in the memo.
func TestGroupCancelLeavesNoneCached(t *testing.T) {
	base, err := kernels.ByName("stencil")
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		cb := &cancelOnPrepare{Benchmark: base, cancel: cancel}
		memo := NewMemo()
		_, err := NewScheduler(jobs, memo).Run(ctx, naiveCells(cb, machine.All()))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("jobs=%d: got %v, want context.Canceled", jobs, err)
		}
		if memo.Len() != 0 {
			t.Errorf("jobs=%d: %d members cached after cancellation", jobs, memo.Len())
		}
	}
}

// TestGroupedErrorsNameEachMachine checks that a failure of a shared run
// reaches every member with its own machine's name, as if measured alone.
func TestGroupedErrorsNameEachMachine(t *testing.T) {
	base, err := kernels.ByName("libor")
	if err != nil {
		t.Fatal(err)
	}
	cells := naiveCells(&badCheckBench{Benchmark: base}, machine.All())
	ms, errs, shared := measureShared(context.Background(), cells)
	if !shared {
		t.Fatal("libor naive did not share")
	}
	for i, c := range cells {
		want := fmt.Sprintf("libor/naive on %s: functional check failed: %v", c.Machine.Name, errBoom)
		if ms[i] != nil || errs[i] == nil || errs[i].Error() != want || !errors.Is(errs[i], errBoom) {
			t.Errorf("member %d: got (%v, %v), want error %q", i, ms[i], errs[i], want)
		}
	}
}

// badCheckBench prepares instances whose Check fails.
type badCheckBench struct {
	kernels.Benchmark
}

func (b *badCheckBench) Prepare(v kernels.Version, m *machine.Machine, n int) (*kernels.Instance, error) {
	inst, err := b.Benchmark.Prepare(v, m, n)
	if err != nil {
		return nil, err
	}
	inst.Check = func() error { return errBoom }
	return inst, nil
}

// TestDispatchMemoMisses pins how many cells each driver computes at
// smoke scale, run in `all` order on one fresh memo and each alone on a
// fresh memo. The counts were taken before shared runs existed; grouping
// must not change them.
func TestDispatchMemoMisses(t *testing.T) {
	ids := append(DriverIDs(), "bench-export")
	inOrder := []int64{0, 22, 0, 88, 22, 11, 11, 22, 22, 0, 11, 11}
	alone := []int64{0, 22, 22, 110, 44, 44, 33, 44, 44, 55, 17, 110}
	defer ResetMemo()
	count := func(id string) int64 {
		_, before := MemoStats()
		if _, err := Dispatch(id, Config{Scale: 0.05, Jobs: 2}); err != nil {
			t.Fatal(err)
		}
		_, after := MemoStats()
		return after - before
	}
	ResetMemo()
	for i, id := range ids {
		if got := count(id); got != inOrder[i] {
			t.Errorf("%s after the drivers before it: %d cells computed, want %d", id, got, inOrder[i])
		}
	}
	for i, id := range ids {
		ResetMemo()
		if got := count(id); got != alone[i] {
			t.Errorf("%s alone: %d cells computed, want %d", id, got, alone[i])
		}
	}
}

// TestSchedulerGroupResultsMatchSolo checks a mixed batch end to end: the
// same cells on a grouping scheduler and one cell per batch (no group can
// form) give deeply equal Results. The batch includes a Westmere clone
// with a 64 KB L1, whose hits one L1 simulation of the others cannot
// decide: the plan must measure its cells alone.
func TestSchedulerGroupResultsMatchSolo(t *testing.T) {
	bigL1 := machine.WestmereX980().Clone()
	bigL1.Name = "WestmereX980-64KL1"
	bigL1.Caches[0].SizeBytes = 64 << 10
	var cells []Cell
	for _, name := range []string{"nbody", "treesearch", "blackscholes"} {
		b, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []kernels.Version{kernels.Naive, kernels.AutoVec, kernels.Ninja} {
			for _, m := range append(groupMachines(), bigL1) {
				cells = append(cells, Cell{Bench: b, Version: v, Machine: m, N: LegalN(b, b.TestN())})
			}
		}
	}
	s := NewScheduler(2, NewMemo())
	groups := 0
	for _, it := range s.plan(cells, s.keys(cells)) {
		if it.group != nil {
			groups++
		}
		for _, i := range it.group {
			if cells[i].Machine == bigL1 {
				t.Errorf("plan grouped %s/%s on the 64 KB-L1 clone with %d other cells",
					cells[i].Bench.Name(), cells[i].Version, len(it.group)-1)
			}
		}
	}
	if groups == 0 {
		t.Error("plan formed no group")
	}
	grouped, err := s.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		solo, err := NewScheduler(1, NewMemo()).Run(context.Background(), []Cell{c})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(grouped[i].Res, solo[0].Res) {
			t.Errorf("%s/%s on %s: grouped Result differs from a solo run", c.Bench.Name(), c.Version, c.Machine.Name)
		}
	}
}
