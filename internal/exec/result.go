// Package exec is the execution engine: it runs vm programs functionally —
// producing the numeric results the golden tests check — while charging
// every dynamic instruction and memory access to the machine cost model
// (internal/machine) and cache simulator (internal/cache). Its output is
// the simulated execution time plus a detailed accounting of where the
// cycles went, which is what every experiment in the reproduction consumes.
package exec

import (
	"fmt"

	"ninjagap/internal/cache"
	"ninjagap/internal/machine"
)

// Options configures a run.
type Options struct {
	// Threads is the number of software threads used for parallel loops.
	// 0 means one thread per hardware thread of the machine. Serial
	// ("naive") runs pass 1.
	Threads int

	// DisablePrefetch turns the hardware prefetcher off regardless of the
	// machine features (ablation E9).
	DisablePrefetch bool

	// NoFuse disables bind-time superinstruction fusion (see fuse.go).
	// Fused dispatch is bit-identical to unfused dispatch by construction,
	// so the flag changes wall-clock only; it exists for the differential
	// tests and the dispatch speed gate and is not part of any cache
	// identity.
	NoFuse bool
}

// Result reports a simulated run.
type Result struct {
	// Cycles is simulated time on the machine's clock: the sum over
	// program segments of max(core time, bandwidth time).
	Cycles float64
	// Seconds converts Cycles at the machine frequency.
	Seconds float64

	// ComputeCycles, StallCycles and BWExtraCycles decompose Cycles:
	// port-bound issue time on the critical core, memory/dependence
	// stalls after SMT overlap, and additional time added by the DRAM
	// bandwidth ceiling.
	ComputeCycles float64
	StallCycles   float64
	BWExtraCycles float64

	// DynInstrs counts dynamic VM instructions, Flops useful FP
	// operations on active lanes (FMA counts two).
	DynInstrs uint64
	Flops     uint64

	// DRAMBytes is the total traffic to/from memory across all threads.
	DRAMBytes uint64

	// GFlops is the achieved useful GFLOP/s.
	GFlops float64

	// BoundBy classifies the whole run from its totals: "bandwidth" if
	// BWExtraCycles exceed 30% of Cycles, else "latency" if StallCycles
	// do, else "compute".
	BoundBy string

	// PortCycles aggregates port occupancy over all threads.
	PortCycles [machine.NumPorts]float64

	// ClassCounts counts dynamic instructions by machine op class.
	ClassCounts [machine.NumOpClasses]uint64

	// CacheStats aggregates per-level demand statistics over all threads,
	// L1 first.
	CacheStats []cache.LevelStats

	// Threads is the software thread count actually used.
	Threads int
}

// String summarizes the result on one line.
func (r *Result) String() string {
	return fmt.Sprintf("%.3g Mcycles (%.3g ms, %.2f GF/s, %s-bound, %d threads)",
		r.Cycles/1e6, r.Seconds*1e3, r.GFlops, r.BoundBy, r.Threads)
}

// Speedup returns how much faster r is than other (other.Seconds /
// r.Seconds).
func (r *Result) Speedup(other *Result) float64 {
	if r.Seconds == 0 {
		return 0
	}
	return other.Seconds / r.Seconds
}

// costAcc accumulates per-segment cost on one thread. Dynamic issue slots
// are not tracked separately: every charge issues exactly one slot, so the
// slot count is dyn (converted to float64 where cycle math needs it).
type costAcc struct {
	port    [machine.NumPorts]float64
	stall   float64 // memory + dependence + branch stall cycles
	dyn     uint64
	flops   uint64
	classes [machine.NumOpClasses]uint64
}

func (c *costAcc) reset() { *c = costAcc{} }

// add accounts one dynamic instruction with a pre-bound charge row: port
// occupancy, one issue slot, one class count. This is the bound-program
// equivalent of the old charge(class, lanes).
func (c *costAcc) add(ch chargeRow) {
	c.port[ch.port] += ch.occ
	c.dyn++
	c.classes[ch.class]++
}

// computeCycles returns the port/issue-bound compute time of the segment.
func (c *costAcc) computeCycles(issueWidth int) float64 {
	t := float64(c.dyn) / float64(issueWidth)
	for _, p := range c.port {
		if p > t {
			t = p
		}
	}
	return t
}

// addInto merges this accumulator into result aggregates.
func (c *costAcc) addInto(r *Result) {
	for i := range c.port {
		r.PortCycles[i] += c.port[i]
	}
	r.DynInstrs += c.dyn
	r.Flops += c.flops
	for i := range c.classes {
		r.ClassCounts[i] += c.classes[i]
	}
}
