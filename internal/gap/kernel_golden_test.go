package gap

// Per-kernel golden byte-identity tests. They pin the raw exec.Result —
// every float64 of the cycle decomposition, port occupancy and cache
// statistics — via Go's shortest-exact float formatting, so a single ULP
// of drift anywhere in the simulation fails the diff:
//
//   - every ladder version of every suite kernel on Westmere, the paper's
//     primary platform (one file per kernel);
//   - naive and ninja of every suite kernel on each other preset (one
//     file per machine), which covers the two- and three-level
//     hierarchies, SMT widths and shared-LLC partitions Westmere alone
//     does not.
//
// Regenerate deliberately with
//
//	go test ./internal/gap -run TestGoldenKernel -update

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
)

// kernelGoldenCheck pins every version of the named kernel on Westmere.
func kernelGoldenCheck(t *testing.T, name string) {
	t.Helper()
	bench, err := kernels.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.WestmereX980()
	n := SizeFor(bench, Config{Scale: 0.05})
	var cells []Cell
	for _, v := range kernels.Versions() {
		cells = append(cells, Cell{Bench: bench, Version: v, Machine: m, N: n})
	}
	resultGoldenCheck(t, name+"_smoke.golden.txt", cells)
}

// machineGoldenCheck pins naive and ninja of every suite kernel on m.
func machineGoldenCheck(t *testing.T, m *machine.Machine) {
	t.Helper()
	var cells []Cell
	for _, bench := range kernels.All() {
		n := SizeFor(bench, Config{Scale: 0.05})
		for _, v := range []kernels.Version{kernels.Naive, kernels.Ninja} {
			cells = append(cells, Cell{Bench: bench, Version: v, Machine: m, N: n})
		}
	}
	resultGoldenCheck(t, "machine_"+m.Name+"_smoke.golden.txt", cells)
}

// resultGoldenCheck runs cells serially and diffs their raw results
// against testdata/file.
func resultGoldenCheck(t *testing.T, file string, cells []Cell) {
	t.Helper()
	ms, err := RunCells(Config{Jobs: 1}, cells)
	if err != nil {
		t.Fatal(err)
	}
	got := ""
	for i, mm := range ms {
		got += fmt.Sprintf("%s/%s n=%d threads=%d\n%+v\n",
			cells[i].Bench.Name(), cells[i].Version, cells[i].N, mm.Threads, *mm.Res)
	}
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("results diverged from %s\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestGoldenKernelTreesearch pins the pointer-chasing tree lookup kernel.
func TestGoldenKernelTreesearch(t *testing.T) { kernelGoldenCheck(t, "treesearch") }

// TestGoldenKernelMergesort pins the data-dependent merge kernel.
func TestGoldenKernelMergesort(t *testing.T) { kernelGoldenCheck(t, "mergesort") }

// TestGoldenKernelVolumerender pins the ray-casting kernel.
func TestGoldenKernelVolumerender(t *testing.T) { kernelGoldenCheck(t, "volumerender") }

// TestGoldenKernelLBM pins the lattice-Boltzmann stencil kernel.
func TestGoldenKernelLBM(t *testing.T) { kernelGoldenCheck(t, "lbm") }

// TestGoldenKernelSuite pins the remaining suite kernels on Westmere.
func TestGoldenKernelSuite(t *testing.T) {
	for _, name := range []string{"nbody", "backprojection", "complexconv",
		"blackscholes", "stencil", "libor", "conv2d"} {
		t.Run(name, func(t *testing.T) { kernelGoldenCheck(t, name) })
	}
}

// TestGoldenKernelMachines pins naive and ninja of the whole suite on
// every preset other than Westmere.
func TestGoldenKernelMachines(t *testing.T) {
	for _, m := range []*machine.Machine{machine.Core2Quad(), machine.NehalemI7(),
		machine.KnightsFerry(), machine.FutureWide()} {
		t.Run(m.Name, func(t *testing.T) { machineGoldenCheck(t, m) })
	}
}
