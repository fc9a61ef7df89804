package machine

import (
	"fmt"
	"sync"
)

// preset is one row of the preset table.
type preset struct {
	name  string
	build func() *Machine
	// pristine returns a copy of the preset that is never handed out,
	// and its fingerprint, both made on first use and kept for the
	// process.
	pristine func() (*Machine, uint64)
}

// presets is the preset table, in the order All returns: by introduction
// year, WestmereX980 before KnightsFerry within 2010. It drives All,
// ByName and the preset fingerprints Fingerprint answers from.
var presets = newPresets(Core2Quad, NehalemI7, WestmereX980, KnightsFerry, FutureWide)

func newPresets(builds ...func() *Machine) []preset {
	out := make([]preset, len(builds))
	for i, build := range builds {
		out[i] = preset{name: build().Name, build: build,
			pristine: sync.OnceValues(func() (*Machine, uint64) {
				m := build()
				return m, m.hash()
			})}
	}
	return out
}

// presetNamed returns the table row for name, or nil.
func presetNamed(name string) *preset {
	for i := range presets {
		if presets[i].name == name {
			return &presets[i]
		}
	}
	return nil
}

// All returns fresh copies of the preset machines, sorted by
// introduction year.
func All() []*Machine {
	out := make([]*Machine, len(presets))
	for i := range presets {
		out[i] = presets[i].build()
	}
	return out
}

// ByName returns a fresh copy of the named preset machine, or an error.
// It builds only that preset.
func ByName(name string) (*Machine, error) {
	if p := presetNamed(name); p != nil {
		return p.build(), nil
	}
	return nil, unknownMachine(name)
}

// presetNames lists the presets in All's order.
var presetNames = func() []string {
	out := make([]string, len(presets))
	for i := range presets {
		out[i] = presets[i].name
	}
	return out
}()

// PresetNames returns the preset names in All's order, without building
// a machine. The slice is shared: callers must not modify it.
func PresetNames() []string { return presetNames }

// PresetFingerprint returns the named preset's fingerprint, the value
// ByName(name).Fingerprint() returns, from the preset table: computed
// once per process, and with no machine built on later calls.
func PresetFingerprint(name string) (uint64, error) {
	if p := presetNamed(name); p != nil {
		_, fp := p.pristine()
		return fp, nil
	}
	return 0, unknownMachine(name)
}

func unknownMachine(name string) error {
	return fmt.Errorf("machine: unknown machine %q", name)
}

// Default cost tables. The numbers are calibrated against published
// instruction tables for the corresponding microarchitectures (Fog's
// tables for Core 2 / Nehalem / Westmere; Intel's LRBni disclosures for the
// MIC) at the granularity the paper's roofline arguments need: pipelined
// FP adds and multiplies at one per cycle, long-latency unpipelined
// divide/sqrt, cheap approximate reciprocals, expensive scalar libm calls
// versus short-polynomial vector math, and per-element emulated
// gather/scatter on machines without hardware support.

// baseCosts returns the out-of-order x86 cost table shared by the Core 2,
// Nehalem, and Westmere presets.
func baseCosts() [NumOpClasses]Cost {
	var t [NumOpClasses]Cost
	t[OpFPAdd] = Cost{Port: PortFPAdd, RecipTput: 1, Latency: 3, Pipelined: true}
	t[OpFPMul] = Cost{Port: PortFPMul, RecipTput: 1, Latency: 5, Pipelined: true}
	// No FMA on these parts; codegen must emit mul+add. Kept for ablations.
	t[OpFPFMA] = Cost{Port: PortFPMul, RecipTput: 1, Latency: 5, Pipelined: true}
	t[OpFPDiv] = Cost{Port: PortFPMul, RecipTput: 14, Latency: 14, Pipelined: false}
	t[OpFPSqrt] = Cost{Port: PortFPMul, RecipTput: 14, Latency: 14, Pipelined: false}
	t[OpFPRcp] = Cost{Port: PortFPMul, RecipTput: 1, Latency: 3, Pipelined: true}
	t[OpFPRsqrt] = Cost{Port: PortFPMul, RecipTput: 1, Latency: 3, Pipelined: true}
	// Vector polynomial transcendental (SVML-style): ~8 cycles of mul/add
	// work per vector, charged to the multiplier port.
	t[OpMathPoly] = Cost{Port: PortFPMul, RecipTput: 8, Latency: 16, Pipelined: true}
	// Scalar libm call: call overhead + polynomial + branching.
	t[OpMathLibm] = Cost{Port: PortFPMul, RecipTput: 20, Latency: 20, Pipelined: true}
	t[OpIntALU] = Cost{Port: PortALU, RecipTput: 0.25, Latency: 1, Pipelined: true}
	t[OpShuffle] = Cost{Port: PortShuffle, RecipTput: 1, Latency: 1, Pipelined: true}
	t[OpBlend] = Cost{Port: PortShuffle, RecipTput: 1, Latency: 1, Pipelined: true}
	t[OpLoad] = Cost{Port: PortLoad, RecipTput: 1, Latency: 4, Pipelined: true}
	t[OpStore] = Cost{Port: PortStore, RecipTput: 1, Latency: 0, Pipelined: true}
	// Emulated gather: extract index, scalar load, insert — about two
	// load-port cycles per element.
	t[OpGatherElem] = Cost{Port: PortLoad, RecipTput: 2, Latency: 6, Pipelined: true, PerElement: true}
	t[OpScatterElem] = Cost{Port: PortStore, RecipTput: 2, Latency: 0, Pipelined: true, PerElement: true}
	// Predicted branches macro-fuse with their compare.
	t[OpBranch] = Cost{Port: PortALU, RecipTput: 0.5, Latency: 1, Pipelined: true}
	return t
}

// micCosts returns the in-order Knights Ferry cost table: same pipelined
// FP rates (there is a single 16-wide VPU), hardware gather at one cycle
// per element (it is line-rate limited in reality; the per-line discount is
// applied by the engine when Features.HWGather is set), and FMA support.
func micCosts() [NumOpClasses]Cost {
	t := baseCosts()
	t[OpFPFMA] = Cost{Port: PortFPMul, RecipTput: 1, Latency: 4, Pipelined: true}
	t[OpMathPoly] = Cost{Port: PortFPMul, RecipTput: 6, Latency: 12, Pipelined: true}
	t[OpMathLibm] = Cost{Port: PortFPMul, RecipTput: 60, Latency: 60, Pipelined: true}
	// Hardware gather/scatter: roughly one cycle per element issued from
	// the VPU, further discounted per cache line by the engine.
	t[OpGatherElem] = Cost{Port: PortLoad, RecipTput: 1, Latency: 6, Pipelined: true, PerElement: true}
	t[OpScatterElem] = Cost{Port: PortStore, RecipTput: 1, Latency: 0, Pipelined: true, PerElement: true}
	// In-order core: mispredictions are cheaper (short pipeline) but
	// everything else stalls more; the engine models stalls via latency.
	// Predicted branches macro-fuse with their compare.
	t[OpBranch] = Cost{Port: PortALU, RecipTput: 0.5, Latency: 1, Pipelined: true}
	return t
}

// Core2Quad models a 2007-era 4-core Core 2 (Kentsfield/Yorkfield class):
// 4-wide SSE, no SMT, FSB-limited memory bandwidth. Used by the gap-trend
// experiment (E2).
func Core2Quad() *Machine {
	m := &Machine{
		Name: "Core2Quad", Year: 2007,
		Cores: 4, FreqGHz: 2.66,
		VecWidthF32: 4, VecWidthF64: 2, IssueWidth: 4,
		BranchMissPenalty: 15,
		Caches: []CacheLevel{
			{Name: "L1", SizeBytes: 32 << 10, Assoc: 8, LineBytes: 64, Latency: 3},
			{Name: "L2", SizeBytes: 4 << 20, Assoc: 16, LineBytes: 64, Latency: 15, Shared: true},
		},
		Mem:   Memory{BandwidthGBps: 8, Latency: 220, MLP: 6},
		Feat:  Features{HWPrefetch: true, SMT: 1},
		costs: baseCosts(),
	}
	return m
}

// NehalemI7 models a 2009-era 4-core Core i7 (Nehalem): 4-wide SSE, 2-way
// SMT, integrated memory controller.
func NehalemI7() *Machine {
	return &Machine{
		Name: "NehalemI7", Year: 2009,
		Cores: 4, FreqGHz: 3.2,
		VecWidthF32: 4, VecWidthF64: 2, IssueWidth: 4,
		BranchMissPenalty: 17,
		Caches: []CacheLevel{
			{Name: "L1", SizeBytes: 32 << 10, Assoc: 8, LineBytes: 64, Latency: 4},
			{Name: "L2", SizeBytes: 256 << 10, Assoc: 8, LineBytes: 64, Latency: 10},
			{Name: "L3", SizeBytes: 8 << 20, Assoc: 16, LineBytes: 64, Latency: 38, Shared: true},
		},
		Mem:   Memory{BandwidthGBps: 18, Latency: 200, MLP: 10},
		Feat:  Features{HWPrefetch: true, FastUnaligned: true, SMT: 2},
		costs: baseCosts(),
	}
}

// WestmereX980 models the paper's primary platform: the 6-core Core i7 X980
// (Westmere, 2010), 3.33 GHz, 4-wide SSE, 2-way SMT, 12 MB shared L3.
func WestmereX980() *Machine {
	return &Machine{
		Name: "WestmereX980", Year: 2010,
		Cores: 6, FreqGHz: 3.33,
		VecWidthF32: 4, VecWidthF64: 2, IssueWidth: 4,
		BranchMissPenalty: 17,
		Caches: []CacheLevel{
			{Name: "L1", SizeBytes: 32 << 10, Assoc: 8, LineBytes: 64, Latency: 4},
			{Name: "L2", SizeBytes: 256 << 10, Assoc: 8, LineBytes: 64, Latency: 10},
			{Name: "L3", SizeBytes: 12 << 20, Assoc: 16, LineBytes: 64, Latency: 40, Shared: true},
		},
		Mem:   Memory{BandwidthGBps: 24, Latency: 200, MLP: 10},
		Feat:  Features{HWPrefetch: true, FastUnaligned: true, SMT: 2},
		costs: baseCosts(),
	}
}

// KnightsFerry models the paper's Intel MIC platform (Knights Ferry / Aubrey
// Isle): 32 in-order cores at 1.2 GHz, 16-wide SIMD with FMA and hardware
// gather/scatter, 4-way SMT, per-core coherent L2, GDDR memory.
func KnightsFerry() *Machine {
	return &Machine{
		Name: "KnightsFerry", Year: 2010,
		Cores: 32, FreqGHz: 1.2,
		VecWidthF32: 16, VecWidthF64: 8, IssueWidth: 2,
		BranchMissPenalty: 6,
		Caches: []CacheLevel{
			{Name: "L1", SizeBytes: 32 << 10, Assoc: 8, LineBytes: 64, Latency: 3},
			{Name: "L2", SizeBytes: 256 << 10, Assoc: 8, LineBytes: 64, Latency: 15},
		},
		Mem:   Memory{BandwidthGBps: 58, Latency: 250, MLP: 8},
		Feat:  Features{HWGather: true, HWScatter: true, FMA: true, HWPrefetch: true, SMT: 4},
		costs: micCosts(),
	}
}

// FutureWide is a hypothetical 16-core, 8-wide (AVX-like) part used by the
// trend extrapolation and hardware-support ablations.
func FutureWide() *Machine {
	t := baseCosts()
	t[OpFPFMA] = Cost{Port: PortFPMul, RecipTput: 1, Latency: 5, Pipelined: true}
	return &Machine{
		Name: "FutureWide", Year: 2014,
		Cores: 16, FreqGHz: 3.0,
		VecWidthF32: 8, VecWidthF64: 4, IssueWidth: 4,
		BranchMissPenalty: 17,
		Caches: []CacheLevel{
			{Name: "L1", SizeBytes: 32 << 10, Assoc: 8, LineBytes: 64, Latency: 4},
			{Name: "L2", SizeBytes: 256 << 10, Assoc: 8, LineBytes: 64, Latency: 11},
			{Name: "L3", SizeBytes: 20 << 20, Assoc: 16, LineBytes: 64, Latency: 42, Shared: true},
		},
		Mem:   Memory{BandwidthGBps: 40, Latency: 200, MLP: 10},
		Feat:  Features{FMA: true, HWPrefetch: true, FastUnaligned: true, SMT: 2},
		costs: t,
	}
}
