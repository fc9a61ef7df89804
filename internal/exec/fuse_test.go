package exec

import (
	"reflect"
	"sort"
	"testing"

	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
)

// legalN clamps a benchmark size to its minimum and the per-kernel size
// granularity (mirrors the gap package's size legalization, which exec
// tests cannot import without a cycle).
func legalN(b kernels.Benchmark, n int) int {
	if min := b.TestN(); n < min {
		n = min
	}
	switch b.Name() {
	case "complexconv", "blackscholes":
		return (n / 64) * 64
	}
	return n
}

// TestFusionBitIdentical is the admissibility proof for superinstruction
// fusion: for every built-in kernel and every ladder version, a run with
// fusion disabled must produce exactly the same Result — every float64 of
// the cycle decomposition, port occupancy and cache statistics — and
// exactly the same output arrays as the default fused run. The test
// also checks the process-wide fused-instruction counter advanced, so it
// cannot pass vacuously with fusion never engaging.
func TestFusionBitIdentical(t *testing.T) {
	m := machine.WestmereX980()
	before := FusedInstrs()
	for _, b := range kernels.All() {
		n := legalN(b, int(float64(b.TestN())))
		for _, v := range kernels.Versions() {
			fused, err := b.Prepare(v, m, n)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := b.Prepare(v, m, n)
			if err != nil {
				t.Fatal(err)
			}
			rf, err := Run(fused.Prog, fused.Arrays, m, Options{Threads: 1})
			if err != nil {
				t.Fatalf("%s/%s fused: %v", b.Name(), v, err)
			}
			rp, err := Run(plain.Prog, plain.Arrays, m, Options{Threads: 1, NoFuse: true})
			if err != nil {
				t.Fatalf("%s/%s nofuse: %v", b.Name(), v, err)
			}
			if !reflect.DeepEqual(rf, rp) {
				t.Errorf("%s/%s n=%d: Result diverged between fused and NoFuse dispatch\nfused:  %+v\nnofuse: %+v",
					b.Name(), v, n, rf, rp)
			}
			for name, af := range fused.Arrays {
				ap := plain.Arrays[name]
				if ap == nil {
					t.Fatalf("%s/%s: array %q missing from NoFuse instance", b.Name(), v, name)
				}
				if !reflect.DeepEqual(af.Data, ap.Data) {
					t.Errorf("%s/%s n=%d: array %q diverged between fused and NoFuse dispatch",
						b.Name(), v, n, name)
				}
			}
		}
	}
	if FusedInstrs() == before {
		t.Error("no fused superinstructions executed across the whole kernel suite; the bit-identity check is vacuous")
	}
}

// dispatchMedians returns the median seconds of CPU time of reps
// single-threaded interpreter runs with fusion and of reps without, on
// freshly prepared instances so mutated inputs cannot skew later reps.
// One simulated thread runs inline and the package's tests run one at a
// time, so this process's CPU time is the run's own; unlike wall time,
// it does not grow while concurrent test binaries hold the CPUs. The two
// variants also alternate run by run, so what load still leaks in
// (cache and frequency effects) weighs on both alike.
func dispatchMedians(t *testing.T, b kernels.Benchmark, m *machine.Machine, n, reps int) (fused, nofuse float64) {
	t.Helper()
	run := func(noFuse bool) float64 {
		inst, err := b.Prepare(kernels.Ninja, m, n)
		if err != nil {
			t.Fatal(err)
		}
		start := cpuTime(t)
		if _, err := Run(inst.Prog, inst.Arrays, m, Options{Threads: 1, NoFuse: noFuse}); err != nil {
			t.Fatal(err)
		}
		return (cpuTime(t) - start).Seconds()
	}
	fs := make([]float64, 0, reps)
	ns := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		fs = append(fs, run(false))
		ns = append(ns, run(true))
	}
	sort.Float64s(fs)
	sort.Float64s(ns)
	return fs[reps/2], ns[reps/2]
}

// TestDispatchSpeedRegression guards fusion on the interpreter-bound
// kernels (treesearch's pointer chasing, mergesort's data-dependent
// merges): fused dispatch must not be slower than unfused dispatch. The
// threshold is deliberately loose — fusion is worth ~10-25% on these
// kernels, so only a real regression (fusion overhead without its
// benefit) crosses 1.2x; shared-CI noise does not.
func TestDispatchSpeedRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("timing harness")
	}
	if raceEnabled {
		t.Skip("timing comparison is meaningless under the race detector")
	}
	m := machine.WestmereX980()
	for _, name := range []string{"treesearch", "mergesort"} {
		var b kernels.Benchmark
		for _, k := range kernels.All() {
			if k.Name() == name {
				b = k
				break
			}
		}
		if b == nil {
			t.Fatalf("kernel %q not registered", name)
		}
		n := legalN(b, int(float64(b.DefaultN())*0.25))
		dispatchMedians(t, b, m, n, 3) // warm pools
		fused, nofuse := dispatchMedians(t, b, m, n, 15)
		t.Logf("%-12s fused=%8.3fms nofuse=%8.3fms speedup=%5.2fx", name, fused*1e3, nofuse*1e3, nofuse/fused)
		if fused > nofuse*1.2 {
			t.Errorf("%s: fused dispatch %.3fms is more than 1.2x slower than unfused %.3fms",
				name, fused*1e3, nofuse*1e3)
		}
	}
}
