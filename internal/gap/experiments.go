package gap

import (
	"fmt"
	"strings"
	"sync"

	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
	"ninjagap/internal/report"
)

// GapRow is one benchmark's entry in a gap figure.
type GapRow struct {
	Bench string
	// Times indexed by version (seconds).
	Times map[kernels.Version]float64
	// Gaps vs ninja, indexed by version.
	Gaps map[kernels.Version]float64
}

// GapResult is a whole figure's data.
type GapResult struct {
	ID      string
	Title   string
	Machine string
	Rows    []GapRow
	// AvgGap / MaxGap are over the figure's headline version (see each
	// experiment).
	AvgGap, GeoGap, MaxGap float64
}

// headline computes summary stats for one version's gaps.
func (r *GapResult) headline(v kernels.Version) {
	var gaps []float64
	for _, row := range r.Rows {
		gaps = append(gaps, row.Gaps[v])
	}
	r.AvgGap = report.Mean(gaps)
	r.GeoGap = report.Geomean(gaps)
	r.MaxGap = report.Max(gaps)
}

// ladder measures the requested versions for every benchmark and forms
// gaps relative to ninja. All benchmark x version cells of the figure are
// fanned out across the configured scheduler at once; rows are assembled
// in suite order from the index-ordered results, so the rendered figure
// is identical at every job count.
func ladder(m *machine.Machine, cfg Config, vs ...kernels.Version) (*GapResult, error) {
	rs, err := ladders([]*machine.Machine{m}, cfg, vs...)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// ladders is ladder on several machines in one batch, so the scheduler
// sees every machine's cells at once and shares the serial ones' runs.
// rs[k] is machine ms[k]'s figure.
func ladders(ms []*machine.Machine, cfg Config, vs ...kernels.Version) ([]*GapResult, error) {
	bs, err := cfg.benches()
	if err != nil {
		return nil, err
	}
	withNinja := append([]kernels.Version{}, vs...)
	haveNinja := false
	for _, v := range vs {
		if v == kernels.Ninja {
			haveNinja = true
		}
	}
	if !haveNinja {
		withNinja = append(withNinja, kernels.Ninja)
	}
	var cells []Cell
	for _, m := range ms {
		for _, b := range bs {
			n := SizeFor(b, cfg)
			for _, v := range withNinja {
				cells = append(cells, Cell{Bench: b, Version: v, Machine: m, N: n})
			}
		}
	}
	res, err := cfg.scheduler().Run(cfg.context(), cells)
	if err != nil {
		return nil, err
	}
	per := len(bs) * len(withNinja)
	rs := make([]*GapResult, len(ms))
	for k, m := range ms {
		rs[k] = gapRows(m, bs, withNinja, res[k*per:(k+1)*per])
	}
	return rs, nil
}

// gapRows assembles one machine's gap figure from its cells' results,
// laid out benchmark by benchmark, versions in withNinja's order.
func gapRows(m *machine.Machine, bs []kernels.Benchmark, withNinja []kernels.Version, ms []*Measurement) *GapResult {
	res := &GapResult{Machine: m.Name}
	for bi, b := range bs {
		row := GapRow{Bench: b.Name(),
			Times: map[kernels.Version]float64{},
			Gaps:  map[kernels.Version]float64{}}
		base := bi * len(withNinja)
		ninja := 0.0
		for vi, v := range withNinja {
			if v == kernels.Ninja {
				ninja = ms[base+vi].Seconds()
			}
		}
		for vi, v := range withNinja {
			row.Times[v] = ms[base+vi].Seconds()
			row.Gaps[v] = ms[base+vi].Seconds() / ninja
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Fig1NinjaGap reproduces Figure 1: the Ninja gap (naive serial C vs
// best-optimized code) per benchmark on the Westmere, with the paper's
// headline average (~24X) and maximum (~53X).
func Fig1NinjaGap(cfg Config) (*GapResult, error) {
	r, err := ladder(machine.WestmereX980(), cfg, kernels.Naive)
	if err != nil {
		return nil, err
	}
	r.ID, r.Title = "fig1", "Ninja gap on Westmere X980 (naive serial vs ninja)"
	r.headline(kernels.Naive)
	return r, nil
}

// Render draws a gap figure as a log bar chart plus the headline.
func (r *GapResult) Render(v kernels.Version) string {
	c := report.NewBarChart(fmt.Sprintf("%s: %s [%s]", r.ID, r.Title, r.Machine), "x", true)
	for _, row := range r.Rows {
		c.Add(row.Bench, row.Gaps[v], "")
	}
	return c.String() +
		fmt.Sprintf("average gap %.1fX (geomean %.1fX), max %.1fX\n",
			r.AvgGap, r.GeoGap, r.MaxGap)
}

// TrendPoint is one machine's average unaddressed gap.
type TrendPoint struct {
	Machine        string
	Year           int
	AvgGap, MaxGap float64
}

// TrendResult is Figure 2's data.
type TrendResult struct {
	Points []TrendPoint
}

// Fig2Trend reproduces Figure 2: the growth of the unaddressed Ninja gap
// across processor generations (naive serial vs ninja on each machine).
//
// Every machine's cells go to the scheduler as one batch, so each naive
// kernel runs once for all the machines that still need it (a suite pass
// has already measured Westmere's for table1).
func Fig2Trend(cfg Config) (*TrendResult, error) {
	ms := machine.All()
	rs, err := ladders(ms, cfg, kernels.Naive)
	if err != nil {
		return nil, err
	}
	out := &TrendResult{}
	for k, m := range ms {
		r := rs[k]
		r.headline(kernels.Naive)
		out.Points = append(out.Points, TrendPoint{
			Machine: m.Name, Year: m.Year, AvgGap: r.AvgGap, MaxGap: r.MaxGap,
		})
	}
	return out, nil
}

// Render draws the trend.
func (t *TrendResult) Render() string {
	c := report.NewBarChart("fig2: unaddressed Ninja gap across processor generations", "x", false)
	for _, p := range t.Points {
		c.Add(fmt.Sprintf("%s (%d)", p.Machine, p.Year), p.AvgGap,
			fmt.Sprintf("max %.0fX", p.MaxGap))
	}
	return c.String()
}

// BreakdownRow decomposes one benchmark's gap multiplicatively.
type BreakdownRow struct {
	Bench string
	SIMD  float64 // naive serial -> annotated 1-thread (vectorization + fast math)
	TLP   float64 // 1 thread -> all hardware threads
	Rest  float64 // remaining gap to ninja (algorithmic + tuning)
	Total float64
}

// BreakdownResult is Figure 3's data.
type BreakdownResult struct {
	Machine string
	Rows    []BreakdownRow
}

// Fig3Breakdown reproduces Figure 3: each benchmark's total gap decomposed
// into a SIMD component, a threading component, and the remainder.
func Fig3Breakdown(cfg Config) (*BreakdownResult, error) {
	m := machine.WestmereX980()
	bs, err := cfg.benches()
	if err != nil {
		return nil, err
	}
	// Four cells per benchmark; the pragma version on a single thread
	// isolates SIMD from TLP.
	var cells []Cell
	for _, b := range bs {
		n := SizeFor(b, cfg)
		cells = append(cells,
			Cell{Bench: b, Version: kernels.Naive, Machine: m, N: n},
			Cell{Bench: b, Version: kernels.Pragma, Machine: m, N: n, Threads: 1},
			Cell{Bench: b, Version: kernels.Pragma, Machine: m, N: n},
			Cell{Bench: b, Version: kernels.Ninja, Machine: m, N: n})
	}
	ms, err := cfg.scheduler().Run(cfg.context(), cells)
	if err != nil {
		return nil, err
	}
	out := &BreakdownResult{Machine: m.Name}
	for bi, b := range bs {
		naive, p1, pAll, ninja := ms[bi*4].Seconds(), ms[bi*4+1].Seconds(),
			ms[bi*4+2].Seconds(), ms[bi*4+3].Seconds()
		out.Rows = append(out.Rows, BreakdownRow{
			Bench: b.Name(),
			SIMD:  naive / p1,
			TLP:   p1 / pAll,
			Rest:  pAll / ninja,
			Total: naive / ninja,
		})
	}
	return out, nil
}

// Render draws the breakdown table.
func (r *BreakdownResult) Render() string {
	t := report.NewTable("fig3: gap breakdown (multiplicative) ["+r.Machine+"]",
		"bench", "SIMD+compile", "threads", "remaining", "total gap")
	for _, row := range r.Rows {
		t.Add(row.Bench, row.SIMD, row.TLP, row.Rest, row.Total)
	}
	return t.String()
}

// LadderResult carries full per-version times for figures 4/5/6.
type LadderResult struct {
	*GapResult
	Versions []kernels.Version
}

// Fig4Compiler reproduces Figure 4: how far compiler technology alone
// gets — naive, auto-vectorized, and pragma-annotated versions, as gaps
// to ninja, with the compiler's reasons for vectorization failures.
func Fig4Compiler(cfg Config) (*LadderResult, error) {
	vs := []kernels.Version{kernels.Naive, kernels.AutoVec, kernels.Pragma}
	r, err := ladder(machine.WestmereX980(), cfg, vs...)
	if err != nil {
		return nil, err
	}
	r.ID, r.Title = "fig4", "compiler path: naive / auto-vec / +pragmas (gap vs ninja)"
	r.headline(kernels.Pragma)
	return &LadderResult{GapResult: r, Versions: vs}, nil
}

// Fig5Algorithmic reproduces Figure 5: the algorithmic changes closing the
// gap to the paper's ~1.3X average.
func Fig5Algorithmic(cfg Config) (*LadderResult, error) {
	vs := []kernels.Version{kernels.Pragma, kernels.Algo}
	r, err := ladder(machine.WestmereX980(), cfg, vs...)
	if err != nil {
		return nil, err
	}
	r.ID, r.Title = "fig5", "algorithmic changes: +pragmas / +algo (gap vs ninja)"
	r.headline(kernels.Algo)
	return &LadderResult{GapResult: r, Versions: vs}, nil
}

// Fig6MIC reproduces Figure 6: the same ladder on the manycore MIC.
func Fig6MIC(cfg Config) (*LadderResult, error) {
	vs := []kernels.Version{kernels.Naive, kernels.Pragma, kernels.Algo}
	r, err := ladder(machine.KnightsFerry(), cfg, vs...)
	if err != nil {
		return nil, err
	}
	r.ID, r.Title = "fig6", "the ladder on Intel MIC (Knights Ferry)"
	r.headline(kernels.Algo)
	return &LadderResult{GapResult: r, Versions: vs}, nil
}

// Render draws a ladder as a table of gaps.
func (r *LadderResult) Render() string {
	headers := []string{"bench"}
	for _, v := range r.Versions {
		headers = append(headers, v.String()+" gap")
	}
	t := report.NewTable(fmt.Sprintf("%s: %s [%s]", r.ID, r.Title, r.Machine), headers...)
	for _, row := range r.Rows {
		cells := []interface{}{row.Bench}
		for _, v := range r.Versions {
			cells = append(cells, row.Gaps[v])
		}
		t.Add(cells...)
	}
	last := r.Versions[len(r.Versions)-1]
	_ = last
	return t.String() +
		fmt.Sprintf("headline: average %.2fX (geomean %.2fX), max %.2fX\n",
			r.AvgGap, r.GeoGap, r.MaxGap)
}

// VecReport collects the compiler's vectorization diagnostics for every
// benchmark at a version (the explanatory half of Figure 4). They depend
// only on the version and the benchmark list — every benchmark is
// prepared at its test size on the Westmere preset — so the rendered text
// is memoized per (version, benchmarks) until ResetMemo.
func VecReport(v kernels.Version, cfg Config) (string, error) {
	bs, err := cfg.benches()
	if err != nil {
		return "", err
	}
	key := v.String()
	for _, b := range bs {
		key += "|" + b.Name()
	}
	vecReports.Lock()
	s, ok := vecReports.m[key]
	vecReports.Unlock()
	if ok {
		return s, nil
	}
	m := machine.WestmereX980()
	var sb strings.Builder
	for _, b := range bs {
		inst, err := b.Prepare(v, m, LegalN(b, b.TestN()))
		if err != nil {
			return "", err
		}
		if inst.Report != nil {
			sb.WriteString(inst.Report.String())
		}
	}
	s = sb.String()
	vecReports.Lock()
	if vecReports.m == nil {
		vecReports.m = map[string]string{}
	}
	vecReports.m[key] = s
	vecReports.Unlock()
	return s, nil
}

// vecReports is VecReport's process-wide memo, keyed by version and
// benchmark names; ResetMemo empties it. Concurrent misses may both
// render, identically.
var vecReports struct {
	sync.Mutex
	m map[string]string
}
