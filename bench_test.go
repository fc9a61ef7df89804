package ninjagap

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (DESIGN.md's experiment index). Each iteration
// regenerates the experiment's data at a reduced problem scale (the
// simulator's ratios are size-stable once working sets are in regime) and
// reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the study end to end. Run `cmd/ninjagap all -scale 1` for the
// full-size figures with rendered output.
//
// Every iteration calls gap.ResetMemo() first: measurements are memoized
// process-wide, and without the reset every iteration after the first
// would time cache lookups instead of the harness.

import (
	"testing"

	"ninjagap/internal/gap"
	"ninjagap/internal/kernels"
)

// benchScale keeps a full `go test -bench=.` run in the minutes range.
const benchScale = 0.25

func benchCfg() Config { return Config{Scale: benchScale} }

func BenchmarkTable1Suite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gap.ResetMemo()
		if _, err := Table1Suite(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1NinjaGap(b *testing.B) {
	var avg, max float64
	for i := 0; i < b.N; i++ {
		gap.ResetMemo()
		r, err := Fig1NinjaGap(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		avg, max = r.AvgGap, r.MaxGap
	}
	b.ReportMetric(avg, "avg-gap-x")
	b.ReportMetric(max, "max-gap-x")
}

func BenchmarkFig2Trend(b *testing.B) {
	var growth float64
	for i := 0; i < b.N; i++ {
		gap.ResetMemo()
		r, err := Fig2Trend(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		first, last := r.Points[0], r.Points[len(r.Points)-1]
		growth = last.AvgGap / first.AvgGap
	}
	b.ReportMetric(growth, "gap-growth-x")
}

func BenchmarkFig3Breakdown(b *testing.B) {
	var simd, tlp float64
	for i := 0; i < b.N; i++ {
		gap.ResetMemo()
		r, err := Fig3Breakdown(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		var ss, ts []float64
		for _, row := range r.Rows {
			ss = append(ss, row.SIMD)
			ts = append(ts, row.TLP)
		}
		simd = mean(ss)
		tlp = mean(ts)
	}
	b.ReportMetric(simd, "avg-simd-x")
	b.ReportMetric(tlp, "avg-tlp-x")
}

func BenchmarkFig4Compiler(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		gap.ResetMemo()
		r, err := Fig4Compiler(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		avg = r.AvgGap
	}
	b.ReportMetric(avg, "pragma-gap-x")
}

func BenchmarkFig5Algorithmic(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		gap.ResetMemo()
		r, err := Fig5Algorithmic(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		avg = r.AvgGap
	}
	b.ReportMetric(avg, "final-gap-x")
}

func BenchmarkFig6MIC(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		gap.ResetMemo()
		r, err := Fig6MIC(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		avg = r.AvgGap
	}
	b.ReportMetric(avg, "mic-final-gap-x")
}

func BenchmarkFig7Hardware(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		gap.ResetMemo()
		r, err := Fig7Hardware(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		best = 0
		for _, row := range r.Rows {
			if row.Speedup > best {
				best = row.Speedup
			}
		}
	}
	b.ReportMetric(best, "best-hw-speedup-x")
}

func BenchmarkFig8Effort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gap.ResetMemo()
		if _, err := Fig8Effort(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gap.ResetMemo()
		if _, err := Ablate(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine times the execution engine alone, one sub-benchmark
// per benchmark x version on the Westmere. Preparation is outside the
// timed region (executions mutate instance arrays in place, so each
// iteration needs a fresh instance; generated inputs are memoized per
// size, so the re-prepare is cheap) and validation is skipped — what
// remains is exactly the engine hot path the pre-binding, cache
// simulation and pooling work targets. `go test -bench=Engine` sweeps
// the grid.
func BenchmarkEngine(b *testing.B) {
	m := WestmereX980()
	for _, k := range Benchmarks() {
		for _, v := range Versions() {
			k, v := k, v
			b.Run(k.Name()+"/"+v.String(), func(b *testing.B) {
				n := gap.LegalN(k, int(float64(k.DefaultN())*benchScale))
				threads := m.HWThreads()
				if v.Serial() {
					threads = 1
				}
				var instrs uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					inst, err := k.Prepare(v, m, n)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					res, err := Execute(inst, m, Options{Threads: threads})
					if err != nil {
						b.Fatal(err)
					}
					instrs = res.DynInstrs
				}
				b.ReportMetric(float64(instrs), "sim-instrs")
			})
		}
	}
}

// Per-kernel engine benchmarks: simulated naive and ninja runs of each
// suite member on the Westmere, for profiling the simulator itself.
func BenchmarkKernelNaive(b *testing.B) {
	benchEachKernel(b, Naive)
}

func BenchmarkKernelNinja(b *testing.B) {
	benchEachKernel(b, Ninja)
}

func benchEachKernel(b *testing.B, v Version) {
	m := WestmereX980()
	for _, k := range Benchmarks() {
		k := k
		b.Run(k.Name(), func(b *testing.B) {
			n := gap.LegalN(k, int(float64(k.DefaultN())*benchScale))
			var simSeconds float64
			for i := 0; i < b.N; i++ {
				gap.ResetMemo()
				meas, err := gap.Measure(k, v, m, n)
				if err != nil {
					b.Fatal(err)
				}
				simSeconds = meas.Res.Seconds
			}
			b.ReportMetric(simSeconds*1e3, "sim-ms")
		})
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// TestPublicAPISmoke exercises the façade end to end at tiny scale.
func TestPublicAPISmoke(t *testing.T) {
	b, err := Benchmark("nbody")
	if err != nil {
		t.Fatal(err)
	}
	m := WestmereX980()
	meas, err := Run(b, Algo, m, b.TestN())
	if err != nil {
		t.Fatal(err)
	}
	if meas.Res.Seconds <= 0 {
		t.Fatal("no simulated time")
	}
	inst, err := b.Prepare(Ninja, m, b.TestN())
	if err != nil {
		t.Fatal(err)
	}
	r, err := Execute(inst, m, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Check(); err != nil {
		t.Fatal(err)
	}
	if r.Threads != 2 {
		t.Fatalf("threads = %d, want 2", r.Threads)
	}
	if len(Machines()) != 5 || len(Benchmarks()) != 11 || len(Versions()) != 5 {
		t.Fatal("registry sizes wrong")
	}
	if _, err := kernels.ParseVersion("algo"); err != nil {
		t.Fatal(err)
	}
}
