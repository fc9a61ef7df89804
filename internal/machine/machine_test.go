package machine

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for _, m := range All() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestAllSortedByYear(t *testing.T) {
	ms := All()
	for i := 1; i < len(ms); i++ {
		if ms[i].Year < ms[i-1].Year {
			t.Errorf("All() not sorted: %s (%d) after %s (%d)",
				ms[i].Name, ms[i].Year, ms[i-1].Name, ms[i-1].Year)
		}
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("WestmereX980")
	if err != nil {
		t.Fatal(err)
	}
	if m.Cores != 6 {
		t.Errorf("WestmereX980 cores = %d, want 6", m.Cores)
	}
	if _, err := ByName("nope"); err == nil || err.Error() != `machine: unknown machine "nope"` {
		t.Errorf("ByName(nope) error = %v, want machine: unknown machine \"nope\"", err)
	}
}

func TestPeakGFlops(t *testing.T) {
	w := WestmereX980()
	// 6 cores * 3.33 GHz * 4 lanes * 2 flops/cycle ~= 160 GF/s.
	got := w.PeakGFlopsF32()
	if got < 155 || got > 165 {
		t.Errorf("Westmere peak = %.1f GF/s, want ~160", got)
	}
	kf := KnightsFerry()
	// 32 cores * 1.2 GHz * 16 lanes * 2 = 1228 GF/s.
	if got := kf.PeakGFlopsF32(); got < 1200 || got > 1260 {
		t.Errorf("KNF peak = %.1f GF/s, want ~1228", got)
	}
}

// TestPeakGFlopsPinned pins cores x freq x width x 2 for every preset, so
// a cost-model or preset edit that moves the roofline ceiling is caught.
// FMA and non-FMA parts use the same formula: one FMA per cycle counts the
// same two flops per lane as the add+mul pipe pair.
func TestPeakGFlopsPinned(t *testing.T) {
	want := map[string]float64{
		"Core2Quad":    2 * 4 * 2.66 * 4,  // 85.12
		"NehalemI7":    2 * 4 * 3.2 * 4,   // 102.4
		"WestmereX980": 2 * 4 * 3.33 * 6,  // 159.84
		"KnightsFerry": 2 * 16 * 1.2 * 32, // 1228.8
		"FutureWide":   2 * 8 * 3.0 * 16,  // 768
	}
	for _, m := range All() {
		w, ok := want[m.Name]
		if !ok {
			t.Errorf("no pinned peak for preset %s — extend the table", m.Name)
			continue
		}
		if got := m.PeakGFlopsF32(); got != w {
			t.Errorf("%s peak = %g GF/s, want %g", m.Name, got, w)
		}
	}
}

// TestFingerprint checks that the full-model hash distinguishes clones
// mutated through every channel the ablations use, and is stable for
// unmutated clones.
func TestFingerprint(t *testing.T) {
	base := WestmereX980()
	if got := base.Clone().Fingerprint(); got != base.Fingerprint() {
		t.Error("unmutated clone fingerprints differently from its preset")
	}
	if got := WestmereX980().Fingerprint(); got != base.Fingerprint() {
		t.Error("fingerprint not stable across preset constructions")
	}
	muts := []struct {
		name string
		mut  func(*Machine)
	}{
		{"cost table", func(m *Machine) {
			c := m.Cost(OpGatherElem)
			c.RecipTput *= 2
			m.SetCost(OpGatherElem, c)
		}},
		{"SIMD width", func(m *Machine) { m.VecWidthF32 = 8 }},
		{"issue width", func(m *Machine) { m.IssueWidth = 2 }},
		{"cache geometry", func(m *Machine) { m.Caches[0].SizeBytes = 64 << 10 }},
		{"memory bandwidth", func(m *Machine) { m.Mem.BandwidthGBps = 12 }},
		{"memory MLP", func(m *Machine) { m.Mem.MLP = 4 }},
		{"features", func(m *Machine) { m.Feat.HWGather = true }},
		{"cores", func(m *Machine) { m.Cores = 2 }},
		{"frequency", func(m *Machine) { m.FreqGHz = 2.0 }},
		{"branch penalty", func(m *Machine) { m.BranchMissPenalty = 30 }},
	}
	for _, tc := range muts {
		c := base.Clone()
		tc.mut(c)
		if c.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s mutation did not change the fingerprint", tc.name)
		}
	}
	// Presets must all be distinct.
	seen := map[uint64]string{}
	for _, m := range All() {
		if prev, ok := seen[m.Fingerprint()]; ok {
			t.Errorf("presets %s and %s share a fingerprint", prev, m.Name)
		}
		seen[m.Fingerprint()] = m.Name
	}
}

// referenceFingerprint is the fmt-and-reflection rendering Fingerprint
// reproduces by hand. Every persisted cache key and submit memo key
// embeds a fingerprint, so the two must never differ.
func referenceFingerprint(m *Machine) uint64 {
	h := fnv.New64a()
	io.WriteString(h, referenceIdentity(m))
	return h.Sum64()
}

func referenceIdentity(m *Machine) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%d|%d|%g|%d|%d|%d|%g",
		m.Name, m.Year, m.Cores, m.FreqGHz,
		m.VecWidthF32, m.VecWidthF64, m.IssueWidth, m.BranchMissPenalty)
	fmt.Fprintf(&sb, "|%+v|%+v", m.Mem, m.Feat)
	for _, c := range m.Caches {
		fmt.Fprintf(&sb, "|%+v", c)
	}
	for c := OpClass(0); c < numOpClasses; c++ {
		fmt.Fprintf(&sb, "|%+v", m.costs[c])
	}
	return sb.String()
}

// TestFingerprintMatchesReference checks the hand-written identity string
// and its hash against the fmt rendering, on every preset and on clones
// mutated through every channel the experiments use, with floats whose
// shortest form switches to exponent notation or runs to many digits.
func TestFingerprintMatchesReference(t *testing.T) {
	var ms []*Machine
	for _, p := range All() {
		ms = append(ms, p)
		c := p.Clone()
		cost := c.Cost(OpGatherElem)
		cost.RecipTput, cost.Latency, cost.Pipelined, cost.PerElement = 1e-7, 3.3333333333, false, true
		c.SetCost(OpGatherElem, cost)
		cost = c.Cost(OpFPDiv)
		cost.Port, cost.RecipTput = Port(17), 1e30
		c.SetCost(OpFPDiv, cost)
		ms = append(ms, c)

		ms = append(ms, p.WithCores(1), p.WithCores(1024))
		f := p.Feat
		f.HWGather, f.HWScatter, f.FMA, f.FastUnaligned, f.HWPrefetch, f.SMT = true, true, !f.FMA, !f.FastUnaligned, !f.HWPrefetch, 0
		ms = append(ms, p.WithFeatures(f))

		e := p.Clone()
		e.Name = "edited|{x y:z}"
		e.Year, e.IssueWidth = -1, 0
		e.FreqGHz, e.BranchMissPenalty = 3.3333333333, 1e-7
		e.Mem.BandwidthGBps, e.Mem.Latency, e.Mem.MLP = 1e30, 0.1, -3
		e.Caches[0].Name, e.Caches[0].Latency, e.Caches[0].Shared = "", 1e21, true
		e.Caches = append(e.Caches, CacheLevel{Name: "L4", SizeBytes: 1 << 30, Assoc: 16, LineBytes: 128, Latency: 123.456})
		ms = append(ms, e)
	}
	for _, m := range ms {
		if got, want := string(m.appendIdentity(nil)), referenceIdentity(m); got != want {
			t.Errorf("%s identity string:\n got %s\nwant %s", m.Name, got, want)
		}
		if got, want := m.Fingerprint(), referenceFingerprint(m); got != want {
			t.Errorf("%s fingerprint = %016x, reference %016x", m.Name, got, want)
		}
	}
}

// TestFingerprintAllocs pins the key-derivation cost: a fingerprint
// renders into a stack buffer and hashes it inline.
func TestFingerprintAllocs(t *testing.T) {
	m := WestmereX980()
	if n := testing.AllocsPerRun(100, func() { m.Fingerprint() }); n != 0 {
		t.Errorf("Fingerprint allocates %v times per call, want 0", n)
	}
}

func BenchmarkFingerprint(b *testing.B) {
	m := WestmereX980()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Fingerprint()
	}
}

func TestLanes(t *testing.T) {
	w := WestmereX980()
	if w.Lanes(4) != 4 || w.Lanes(8) != 2 {
		t.Errorf("Westmere lanes: f32=%d f64=%d, want 4/2", w.Lanes(4), w.Lanes(8))
	}
	kf := KnightsFerry()
	if kf.Lanes(4) != 16 || kf.Lanes(8) != 8 {
		t.Errorf("KNF lanes: f32=%d f64=%d, want 16/8", kf.Lanes(4), kf.Lanes(8))
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := WestmereX980()
	c := m.Clone()
	c.Caches[0].SizeBytes = 1 << 20
	c.Cores = 1
	if m.Caches[0].SizeBytes == 1<<20 {
		t.Error("Clone shares cache slice with original")
	}
	if m.Cores == 1 {
		t.Error("Clone shares scalar fields with original")
	}
}

func TestWithCoresAndFeatures(t *testing.T) {
	m := WestmereX980()
	one := m.WithCores(1)
	if one.Cores != 1 || m.Cores != 6 {
		t.Errorf("WithCores: got %d/%d, want 1/6", one.Cores, m.Cores)
	}
	f := m.Feat
	f.HWGather = true
	g := m.WithFeatures(f)
	if !g.Feat.HWGather || m.Feat.HWGather {
		t.Error("WithFeatures did not isolate feature change")
	}
}

func TestHWThreads(t *testing.T) {
	if got := WestmereX980().HWThreads(); got != 12 {
		t.Errorf("Westmere HW threads = %d, want 12", got)
	}
	if got := KnightsFerry().HWThreads(); got != 128 {
		t.Errorf("KNF HW threads = %d, want 128", got)
	}
	m := WestmereX980()
	m.Feat.SMT = 0 // treated as 1
	if got := m.HWThreads(); got != 6 {
		t.Errorf("SMT=0 HW threads = %d, want 6", got)
	}
}

func TestValidateCatchesBadModels(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Machine)
	}{
		{"no cores", func(m *Machine) { m.Cores = 0 }},
		{"no freq", func(m *Machine) { m.FreqGHz = 0 }},
		{"bad widths", func(m *Machine) { m.VecWidthF32 = 1; m.VecWidthF64 = 2 }},
		{"no caches", func(m *Machine) { m.Caches = nil }},
		{"no bw", func(m *Machine) { m.Mem.BandwidthGBps = 0 }},
		{"no mlp", func(m *Machine) { m.Mem.MLP = 0 }},
		{"bad geometry", func(m *Machine) { m.Caches[0].SizeBytes = 1000 }},
		{"48-byte lines", func(m *Machine) { m.Caches[0].LineBytes, m.Caches[0].SizeBytes = 48, 24576 }},
		{"shrinking levels", func(m *Machine) { m.Caches[1].SizeBytes = 16 << 10 }},
		{"missing cost", func(m *Machine) { m.SetCost(OpFPAdd, Cost{}) }},
		{"negative cost", func(m *Machine) { m.SetCost(OpFPAdd, Cost{RecipTput: -1}) }},
	}
	for _, tc := range cases {
		m := WestmereX980()
		tc.mut(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate did not fail", tc.name)
		}
	}
}

func TestCostOccupancy(t *testing.T) {
	pip := Cost{RecipTput: 1, Latency: 5, Pipelined: true}
	if got := pip.Occupancy(4); got != 1 {
		t.Errorf("pipelined occupancy = %g, want 1", got)
	}
	unp := Cost{RecipTput: 14, Latency: 14, Pipelined: false}
	if got := unp.Occupancy(4); got != 14 {
		t.Errorf("unpipelined occupancy = %g, want 14", got)
	}
	per := Cost{RecipTput: 2, Latency: 6, Pipelined: true, PerElement: true}
	if got := per.Occupancy(4); got != 8 {
		t.Errorf("per-element occupancy = %g, want 8", got)
	}
}

func TestStringsAreInformative(t *testing.T) {
	s := WestmereX980().String()
	for _, want := range []string{"WestmereX980", "6 cores", "4-wide"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	if OpFPAdd.String() != "fp-add" {
		t.Errorf("OpFPAdd.String() = %q", OpFPAdd.String())
	}
	if OpClass(99).String() == "" {
		t.Error("out-of-range OpClass should still stringify")
	}
	if PortLoad.String() != "load" {
		t.Errorf("PortLoad.String() = %q", PortLoad.String())
	}
}

func TestLLC(t *testing.T) {
	w := WestmereX980()
	if got := w.LLC().Name; got != "L3" {
		t.Errorf("Westmere LLC = %s, want L3", got)
	}
	kf := KnightsFerry() // no shared level; last level returned
	if got := kf.LLC().Name; got != "L2" {
		t.Errorf("KNF LLC = %s, want L2", got)
	}
}

func TestMICFeatures(t *testing.T) {
	kf := KnightsFerry()
	if !kf.Feat.HWGather || !kf.Feat.FMA {
		t.Error("Knights Ferry must model hardware gather and FMA")
	}
	if kf.VecWidthF32 != 16 {
		t.Errorf("KNF SIMD width = %d, want 16", kf.VecWidthF32)
	}
}
