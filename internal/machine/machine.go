// Package machine defines parameterized models of the processors used in
// the Ninja-gap study: multi-core CPUs with SIMD units, a multi-level cache
// hierarchy, finite DRAM bandwidth, and optional programmability features
// such as hardware gather/scatter.
//
// A Machine is a pure description; the execution engine (internal/exec)
// interprets it. All quantities are per the published datasheets of the
// corresponding Intel parts where available, otherwise chosen to sit in the
// regime the paper describes.
package machine

import (
	"fmt"
	"math"
	"strconv"
)

// OpClass identifies a hardware execution resource class. The cost model
// charges each dynamic instruction to exactly one class (plus the global
// issue-width constraint).
type OpClass int

// Op classes. FP classes apply to both scalar and vector forms; a vector
// instruction does lane-count times the work for the same port occupancy.
const (
	OpFPAdd       OpClass = iota // FP add/sub/min/max/abs/neg
	OpFPMul                      // FP multiply
	OpFPFMA                      // fused multiply-add (only if Features.FMA)
	OpFPDiv                      // FP divide (long latency, unpipelined)
	OpFPSqrt                     // FP square root (long latency, unpipelined)
	OpFPRcp                      // fast reciprocal approximation
	OpFPRsqrt                    // fast reciprocal square root approximation
	OpMathPoly                   // vectorized polynomial transcendental (exp/log/sin/cos)
	OpMathLibm                   // scalar library-call transcendental
	OpIntALU                     // integer/logical/compare/mask ops
	OpShuffle                    // lane permute / pack / unpack
	OpBlend                      // masked select
	OpLoad                       // memory load (per access, address cost only)
	OpStore                      // memory store
	OpGatherElem                 // one element of a gather (emulated unless HWGather)
	OpScatterElem                // one element of a scatter (emulated unless HWScatter)
	OpBranch                     // conditional branch (cost dominated by misprediction)
	numOpClasses
)

var opClassNames = [...]string{
	"fp-add", "fp-mul", "fp-fma", "fp-div", "fp-sqrt", "fp-rcp", "fp-rsqrt",
	"math-poly", "math-libm", "int-alu", "shuffle", "blend", "load", "store",
	"gather-elem", "scatter-elem", "branch",
}

// String returns the mnemonic name of the class.
func (c OpClass) String() string {
	if c < 0 || int(c) >= len(opClassNames) {
		return fmt.Sprintf("opclass(%d)", int(c))
	}
	return opClassNames[c]
}

// NumOpClasses is the number of distinct op classes, for sizing tables.
const NumOpClasses = int(numOpClasses)

// Port identifies an issue-port group. Several op classes can share a port;
// per-port accumulated occupancy bounds throughput.
type Port int

// Issue ports, modeled after the Nehalem/Westmere port layout (and reused,
// with different widths, for the MIC in-order pipeline).
const (
	PortFPAdd   Port = iota // FP adder stack
	PortFPMul               // FP multiplier stack (also div/sqrt front end)
	PortShuffle             // shuffle/blend/integer SIMD
	PortLoad                // load unit(s)
	PortStore               // store unit
	PortALU                 // scalar integer/branch
	NumPorts
)

var portNames = [...]string{"fp-add", "fp-mul", "shuffle", "load", "store", "alu"}

// String returns the port name.
func (p Port) String() string {
	if p < 0 || int(p) >= len(portNames) {
		return fmt.Sprintf("port(%d)", int(p))
	}
	return portNames[p]
}

// Cost describes the execution cost of one op class on one machine.
type Cost struct {
	Port       Port    // which port the op occupies
	RecipTput  float64 // cycles of port occupancy per instruction (1/throughput)
	Latency    float64 // result latency in cycles (for dependence chains)
	Pipelined  bool    // false: occupies the port for Latency cycles (div/sqrt)
	PerElement bool    // true: cost is per SIMD element rather than per instruction
}

// Occupancy returns the port-occupancy cycles for one dynamic instruction of
// width lanes (lanes==1 for scalar).
func (c Cost) Occupancy(lanes int) float64 {
	occ := c.RecipTput
	if !c.Pipelined {
		occ = c.Latency
	}
	if c.PerElement {
		occ *= float64(lanes)
	}
	return occ
}

// Features are the optional programmability-oriented hardware features whose
// impact the paper's Section on hardware support discusses.
type Features struct {
	HWGather      bool // hardware gather: one instruction, cost per cache line touched
	HWScatter     bool // hardware scatter
	FMA           bool // fused multiply-add units
	FastUnaligned bool // unaligned vector loads at full speed
	HWPrefetch    bool // hardware stride prefetcher
	SMT           int  // hardware threads per core (1 = no SMT)
}

// CacheLevel describes one level of the data-cache hierarchy.
type CacheLevel struct {
	Name      string
	SizeBytes int
	Assoc     int
	LineBytes int
	Latency   float64 // load-to-use latency in cycles
	Shared    bool    // shared among all cores (last level), else per core
}

// Memory describes the DRAM subsystem.
type Memory struct {
	BandwidthGBps float64 // peak sustainable bandwidth, shared by all cores
	Latency       float64 // DRAM access latency in cycles
	MLP           int     // max outstanding misses per core (miss-level parallelism)
}

// Machine is a complete processor model.
type Machine struct {
	Name    string
	Year    int     // introduction year, used by the trend experiment
	Cores   int     // physical cores
	FreqGHz float64 // core clock

	VecWidthF32 int // SIMD lanes for 32-bit elements
	VecWidthF64 int // SIMD lanes for 64-bit elements
	IssueWidth  int // max instructions issued per cycle per hardware thread

	BranchMissPenalty float64 // cycles per mispredicted branch

	Caches []CacheLevel // ordered L1 first; last Shared level is the LLC
	Mem    Memory
	Feat   Features

	costs [NumOpClasses]Cost
}

// Cost returns the cost entry for an op class.
func (m *Machine) Cost(c OpClass) Cost { return m.costs[c] }

// SetCost overrides the cost entry for an op class; used by ablations.
func (m *Machine) SetCost(c OpClass, cost Cost) { m.costs[c] = cost }

// Lanes returns the SIMD lane count for the element width in bytes.
func (m *Machine) Lanes(elemBytes int) int {
	if elemBytes >= 8 {
		return m.VecWidthF64
	}
	return m.VecWidthF32
}

// HWThreads returns the total hardware threads (cores times SMT ways).
func (m *Machine) HWThreads() int { return m.Cores * m.smt() }

func (m *Machine) smt() int {
	if m.Feat.SMT < 1 {
		return 1
	}
	return m.Feat.SMT
}

// PeakGFlopsF32 returns the peak single-precision GFLOP/s. Both pipe
// organizations the suite models peak at two flops per lane per cycle:
// non-FMA parts issue one add and one mul per cycle (2 flops x width),
// FMA parts issue one FMA per cycle (also 2 flops x width) — so the peak
// does not branch on Features.FMA. It is the roofline compute ceiling the
// paper compares against.
func (m *Machine) PeakGFlopsF32() float64 {
	return 2.0 * float64(m.VecWidthF32) * m.FreqGHz * float64(m.Cores)
}

// LLC returns the last (shared) cache level, or the last level if none is
// marked shared.
func (m *Machine) LLC() CacheLevel {
	for i := len(m.Caches) - 1; i >= 0; i-- {
		if m.Caches[i].Shared {
			return m.Caches[i]
		}
	}
	return m.Caches[len(m.Caches)-1]
}

// Validate checks structural invariants of the model.
func (m *Machine) Validate() error {
	switch {
	case m.Name == "":
		return fmt.Errorf("machine: empty name")
	case m.Cores <= 0:
		return fmt.Errorf("machine %s: cores must be positive, got %d", m.Name, m.Cores)
	case m.FreqGHz <= 0:
		return fmt.Errorf("machine %s: frequency must be positive, got %g", m.Name, m.FreqGHz)
	case m.VecWidthF32 <= 0 || m.VecWidthF64 <= 0:
		return fmt.Errorf("machine %s: SIMD widths must be positive", m.Name)
	case m.VecWidthF32 < m.VecWidthF64:
		return fmt.Errorf("machine %s: f32 width %d below f64 width %d", m.Name, m.VecWidthF32, m.VecWidthF64)
	case m.IssueWidth <= 0:
		return fmt.Errorf("machine %s: issue width must be positive", m.Name)
	case len(m.Caches) == 0:
		return fmt.Errorf("machine %s: at least one cache level required", m.Name)
	case m.Mem.BandwidthGBps <= 0:
		return fmt.Errorf("machine %s: DRAM bandwidth must be positive", m.Name)
	case m.Mem.MLP <= 0:
		return fmt.Errorf("machine %s: MLP must be positive", m.Name)
	}
	prev := 0
	for i, c := range m.Caches {
		if c.SizeBytes <= 0 || c.Assoc <= 0 || c.LineBytes <= 0 {
			return fmt.Errorf("machine %s: cache %s has non-positive geometry", m.Name, c.Name)
		}
		if c.SizeBytes%(c.Assoc*c.LineBytes) != 0 {
			return fmt.Errorf("machine %s: cache %s size %d not divisible by assoc*line", m.Name, c.Name, c.SizeBytes)
		}
		if c.SizeBytes < prev {
			return fmt.Errorf("machine %s: cache level %d smaller than level %d", m.Name, i, i-1)
		}
		prev = c.SizeBytes
	}
	for c := OpClass(0); c < numOpClasses; c++ {
		cost := m.costs[c]
		if cost.RecipTput < 0 || cost.Latency < 0 {
			return fmt.Errorf("machine %s: negative cost for %s", m.Name, c)
		}
		if cost.RecipTput == 0 && cost.Latency == 0 {
			return fmt.Errorf("machine %s: missing cost for %s", m.Name, c)
		}
	}
	return nil
}

// Fingerprint returns a stable hash of the complete model: every field
// that can change a measurement, including the cost table, cache geometry,
// memory parameters, SIMD/issue widths and features. Clones mutated via
// SetCost or direct field edits therefore fingerprint differently from
// their preset even though they keep its name — the experiment memo cache
// keys on this.
//
// The hash is 64-bit FNV-1a over the identity string appendIdentity
// builds, rendered into a stack buffer: no fmt, no reflection and no
// allocation, because every cache key derivation pays for it. An
// unmodified preset — one equal, field for field, to the preset its name
// names — skips even that: each preset's fingerprint is computed once per
// process (see presets). A clone changed by SetCost, WithCores,
// WithFeatures or a field edit fails the comparison and hashes itself.
func (m *Machine) Fingerprint() uint64 {
	if p := presetNamed(m.Name); p != nil {
		if ref, fp := p.pristine(); m.sameModel(ref) {
			return fp
		}
	}
	return m.hash()
}

// hash is Fingerprint without the preset table: it always hashes.
func (m *Machine) hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var buf [2048]byte
	h := uint64(offset64)
	for _, c := range m.appendIdentity(buf[:0]) {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// appendIdentity appends the string Fingerprint hashes. It is exactly
// the fmt rendering
//
//	"%s|%d|%d|%g|%d|%d|%d|%g" of Name, Year, Cores, FreqGHz,
//	    VecWidthF32, VecWidthF64, IssueWidth, BranchMissPenalty
//	"|%+v" of Mem, of Feat, of each cache level, of each op class's cost
//
// written out by hand (floats as strconv 'g' -1, ports by name), so
// fingerprints — and every persisted cache key that embeds one — keep
// their values. A field added to any of these structs must be appended
// here too; TestFingerprintMatchesReference fails until it is.
func (m *Machine) appendIdentity(b []byte) []byte {
	b = append(b, m.Name...)
	b = appendInt(append(b, '|'), m.Year)
	b = appendInt(append(b, '|'), m.Cores)
	b = appendFloat(append(b, '|'), m.FreqGHz)
	b = appendInt(append(b, '|'), m.VecWidthF32)
	b = appendInt(append(b, '|'), m.VecWidthF64)
	b = appendInt(append(b, '|'), m.IssueWidth)
	b = appendFloat(append(b, '|'), m.BranchMissPenalty)

	b = appendFloat(append(b, "|{BandwidthGBps:"...), m.Mem.BandwidthGBps)
	b = appendFloat(append(b, " Latency:"...), m.Mem.Latency)
	b = appendInt(append(b, " MLP:"...), m.Mem.MLP)

	b = strconv.AppendBool(append(b, "}|{HWGather:"...), m.Feat.HWGather)
	b = strconv.AppendBool(append(b, " HWScatter:"...), m.Feat.HWScatter)
	b = strconv.AppendBool(append(b, " FMA:"...), m.Feat.FMA)
	b = strconv.AppendBool(append(b, " FastUnaligned:"...), m.Feat.FastUnaligned)
	b = strconv.AppendBool(append(b, " HWPrefetch:"...), m.Feat.HWPrefetch)
	b = appendInt(append(b, " SMT:"...), m.Feat.SMT)
	b = append(b, '}')

	for i := range m.Caches {
		c := &m.Caches[i]
		b = append(append(b, "|{Name:"...), c.Name...)
		b = appendInt(append(b, " SizeBytes:"...), c.SizeBytes)
		b = appendInt(append(b, " Assoc:"...), c.Assoc)
		b = appendInt(append(b, " LineBytes:"...), c.LineBytes)
		b = appendFloat(append(b, " Latency:"...), c.Latency)
		b = strconv.AppendBool(append(b, " Shared:"...), c.Shared)
		b = append(b, '}')
	}
	for i := range m.costs {
		c := &m.costs[i]
		b = append(append(b, "|{Port:"...), c.Port.String()...)
		b = appendFloat(append(b, " RecipTput:"...), c.RecipTput)
		b = appendFloat(append(b, " Latency:"...), c.Latency)
		b = strconv.AppendBool(append(b, " Pipelined:"...), c.Pipelined)
		b = strconv.AppendBool(append(b, " PerElement:"...), c.PerElement)
		b = append(b, '}')
	}
	return b
}

// sameModel reports whether m and o are the same model field for field,
// so that they render the same identity string. Floats compare by value
// and sign, since appendIdentity renders 0 and -0 differently; NaN
// equals nothing, so a machine holding one is always hashed. A field
// added to Machine, or a float added to one of its structs, must be
// compared here; TestSameModelSeesEveryField fails until it is.
func (m *Machine) sameModel(o *Machine) bool {
	if m.Name != o.Name || m.Year != o.Year || m.Cores != o.Cores ||
		!sameFloat(m.FreqGHz, o.FreqGHz) || m.VecWidthF32 != o.VecWidthF32 ||
		m.VecWidthF64 != o.VecWidthF64 || m.IssueWidth != o.IssueWidth ||
		!sameFloat(m.BranchMissPenalty, o.BranchMissPenalty) ||
		m.Mem != o.Mem || !sameFloat(m.Mem.BandwidthGBps, o.Mem.BandwidthGBps) ||
		!sameFloat(m.Mem.Latency, o.Mem.Latency) || m.Feat != o.Feat ||
		len(m.Caches) != len(o.Caches) {
		return false
	}
	for i := range m.Caches {
		a, b := &m.Caches[i], &o.Caches[i]
		if *a != *b || !sameFloat(a.Latency, b.Latency) {
			return false
		}
	}
	for i := range m.costs {
		a, b := &m.costs[i], &o.costs[i]
		if *a != *b || !sameFloat(a.RecipTput, b.RecipTput) || !sameFloat(a.Latency, b.Latency) {
			return false
		}
	}
	return true
}

// sameFloat reports whether a and b render alike: equal and of one sign.
func sameFloat(a, b float64) bool { return a == b && math.Signbit(a) == math.Signbit(b) }

// appendInt appends v as fmt's %d renders it.
func appendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

// appendFloat appends v as fmt's %g and %v render a float64.
func appendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

// Clone returns a deep copy, so ablations can mutate without affecting the
// shared preset.
func (m *Machine) Clone() *Machine {
	out := *m
	out.Caches = append([]CacheLevel(nil), m.Caches...)
	return &out
}

// WithFeatures returns a clone with the feature set replaced.
func (m *Machine) WithFeatures(f Features) *Machine {
	out := m.Clone()
	out.Feat = f
	return out
}

// WithCores returns a clone with a different active core count (for scaling
// studies). SMT is preserved.
func (m *Machine) WithCores(n int) *Machine {
	out := m.Clone()
	out.Cores = n
	return out
}

// String returns a one-line summary.
func (m *Machine) String() string {
	return fmt.Sprintf("%s: %d cores x %d SMT @ %.2f GHz, %d-wide f32 SIMD, %.0f GB/s",
		m.Name, m.Cores, m.smt(), m.FreqGHz, m.VecWidthF32, m.Mem.BandwidthGBps)
}
