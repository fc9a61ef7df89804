package gap

import (
	"strings"
	"testing"

	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
)

// tiny is the smallest config: every benchmark at its test size.
var tiny = Config{Scale: 0.0001}

func TestSizeForLegalizes(t *testing.T) {
	ms, _ := kernels.ByName("mergesort")
	if n := LegalN(ms, 1000); n != 512 {
		t.Errorf("mergesort LegalN(1000) = %d, want 512", n)
	}
	bs, _ := kernels.ByName("blackscholes")
	if n := LegalN(bs, 130); n%64 != 0 {
		t.Errorf("blackscholes LegalN(130) = %d, want multiple of 64", n)
	}
	for _, b := range kernels.All() {
		if n := SizeFor(b, tiny); n < b.TestN() {
			t.Errorf("%s: SizeFor(tiny) = %d below TestN %d", b.Name(), n, b.TestN())
		}
	}
}

func TestMeasureValidates(t *testing.T) {
	b, _ := kernels.ByName("blackscholes")
	m := machine.WestmereX980()
	meas, err := Measure(b, kernels.Naive, m, b.TestN())
	if err != nil {
		t.Fatal(err)
	}
	if meas.Threads != 1 {
		t.Errorf("naive ran on %d threads, want 1", meas.Threads)
	}
	meas2, err := Measure(b, kernels.Ninja, m, b.TestN())
	if err != nil {
		t.Fatal(err)
	}
	if meas2.Threads != m.HWThreads() {
		t.Errorf("ninja ran on %d threads, want %d", meas2.Threads, m.HWThreads())
	}
	if meas2.Seconds() >= meas.Seconds() {
		t.Error("ninja not faster than naive")
	}
}

func TestFig1ShapeAtTinyScale(t *testing.T) {
	cfg := tiny
	cfg.Benches = []string{"blackscholes", "nbody", "treesearch"}
	r, err := Fig1NinjaGap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Gaps[kernels.Naive] < 2 {
			t.Errorf("%s: naive gap %.2f implausibly small", row.Bench, row.Gaps[kernels.Naive])
		}
	}
	if r.AvgGap <= 0 || r.MaxGap < r.AvgGap {
		t.Errorf("headline stats inconsistent: avg %.1f max %.1f", r.AvgGap, r.MaxGap)
	}
	s := r.Render(kernels.Naive)
	if !strings.Contains(s, "average gap") || !strings.Contains(s, "blackscholes") {
		t.Errorf("render missing pieces:\n%s", s)
	}
}

func TestFig4And5Ordering(t *testing.T) {
	cfg := tiny
	cfg.Benches = []string{"blackscholes", "conv2d"}
	f4, err := Fig4Compiler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f4.Rows {
		// Each rung of the ladder should not be slower than the previous.
		if row.Gaps[kernels.AutoVec] > row.Gaps[kernels.Naive]*1.05 {
			t.Errorf("%s: autovec gap %.1f worse than naive %.1f",
				row.Bench, row.Gaps[kernels.AutoVec], row.Gaps[kernels.Naive])
		}
		if row.Gaps[kernels.Pragma] > row.Gaps[kernels.AutoVec]*1.05 {
			t.Errorf("%s: pragma gap %.1f worse than autovec %.1f",
				row.Bench, row.Gaps[kernels.Pragma], row.Gaps[kernels.AutoVec])
		}
	}
	f5, err := Fig5Algorithmic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f5.Rows {
		if row.Gaps[kernels.Algo] > row.Gaps[kernels.Pragma]*1.1 {
			t.Errorf("%s: algo gap %.2f worse than pragma %.2f",
				row.Bench, row.Gaps[kernels.Algo], row.Gaps[kernels.Pragma])
		}
	}
	if !strings.Contains(f5.Render(), "headline") {
		t.Error("fig5 render missing headline")
	}
}

func TestFig7HardwareHelpsGatherKernels(t *testing.T) {
	cfg := tiny
	cfg.Benches = []string{"treesearch", "backprojection"}
	r, err := Fig7Hardware(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.Speedup < 1.0 {
			t.Errorf("%s: hardware gather slowed unchanged code: %.2fx", row.Bench, row.Speedup)
		}
	}
	if !strings.Contains(r.Render(), "fig7") {
		t.Error("fig7 render broken")
	}
}

func TestFig8EffortMonotone(t *testing.T) {
	cfg := tiny
	cfg.Benches = []string{"blackscholes"}
	r, err := Fig8Effort(cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	if row.Stmts[kernels.Ninja] <= row.Stmts[kernels.Naive] {
		t.Errorf("ninja effort (%d) should exceed naive source (%d)",
			row.Stmts[kernels.Ninja], row.Stmts[kernels.Naive])
	}
	if row.Speedup[kernels.Ninja] < row.Speedup[kernels.Pragma]*0.85 {
		t.Errorf("ninja speedup %.1f below pragma %.1f",
			row.Speedup[kernels.Ninja], row.Speedup[kernels.Pragma])
	}
	if !strings.Contains(r.Render(), "fig8") {
		t.Error("fig8 render broken")
	}
}

func TestVecReportExplainsFailures(t *testing.T) {
	cfg := tiny
	cfg.Benches = []string{"treesearch", "libor", "mergesort"}
	s, err := VecReport(kernels.AutoVec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"while", "dependence", "SCALAR"} {
		if !strings.Contains(s, want) {
			t.Errorf("autovec report missing %q:\n%s", want, s)
		}
	}
}

func TestTables(t *testing.T) {
	cfg := tiny
	cfg.Benches = []string{"blackscholes"}
	tbl, err := Table1Suite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.String()
	if !strings.Contains(s, "blackscholes") || !strings.Contains(s, "finance") {
		t.Errorf("table1 missing content:\n%s", s)
	}
	s2 := Table2Machines().String()
	for _, want := range []string{"WestmereX980", "KnightsFerry", "Core2Quad"} {
		if !strings.Contains(s2, want) {
			t.Errorf("table2 missing %s", want)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	r, err := Ablate(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Prefetch) == 0 || len(r.SMT) == 0 || len(r.Scaling) == 0 {
		t.Fatal("ablations incomplete")
	}
	// At the tiny test sizes working sets fit in cache, so the prefetcher
	// is close to neutral; it must not be catastrophically wrong.
	for _, p := range r.Prefetch {
		if p.Speedup < 0.85 {
			t.Errorf("prefetch hurt %s: %.2fx", p.Bench, p.Speedup)
		}
	}
	if !strings.Contains(r.Render(), "prefetcher") {
		t.Error("ablation render broken")
	}
}

func TestConfigBenchesValidation(t *testing.T) {
	cfg := Config{Benches: []string{"nope"}}
	if _, err := Fig1NinjaGap(cfg); err == nil {
		t.Error("unknown benchmark should fail")
	}
}
