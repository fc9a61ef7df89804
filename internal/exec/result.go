// Package exec is the execution engine: it runs vm programs functionally —
// producing the numeric results the golden tests check — while charging
// every dynamic instruction and memory access to the machine cost model
// (internal/machine) and cache simulator (internal/cache). Its output is
// the simulated execution time plus a detailed accounting of where the
// cycles went, which is what every experiment in the reproduction consumes.
package exec

import (
	"fmt"
	"math"

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

// costAcc accumulates per-segment cost on one thread. Bound charges are
// counted per charge row (n, indexed by rowID) and turned into port cycles
// and class counts only when the segment flushes (fold); the gather and
// scatter charges, whose occupancy depends on the live mask or the line
// count, go to port and classes directly. Dynamic issue slots are not
// tracked separately: every charge issues exactly one slot, so the slot
// count is the sum of the class counts (dyn).
type costAcc struct {
	n       [math.MaxUint8 + 1]uint64 // bound charges per charge row
	port    [machine.NumPorts]float64
	stall   float64 // memory + dependence + branch stall cycles
	flops   uint64
	classes [machine.NumOpClasses]uint64
}

func (c *costAcc) reset() { *c = costAcc{} }

// add accounts one dynamic instruction with a pre-bound charge row.
func (c *costAcc) add(r rowID) { c.n[r]++ }

// fold adds the row counts into port occupancy (count x occupancy) and
// class counts, once per segment; the caller resets the accumulator after
// using it.
//
// Folding at the flush, instead of adding each charge's occupancy as it
// issues, gives bit-identical port cycles. Every occupancy the shipped cost
// tables produce is a multiple of 1/4 cycle (int-ALU 0.25, branch 0.5,
// everything else integral; per-element gathers and scatters multiply by
// whole lane counts), which TestOccupanciesAreQuarterCycles pins. So every
// partial sum of a segment's port charges, and every count x occupancy, is
// exact in float64, and the sum is the same in any order. Stalls are not
// such multiples (carried stalls are 0.6 x latency, miss penalties are
// divided by the MLP), which is why stall stays a running sum in dynamic
// order.
func (c *costAcc) fold(rows []chargeRow) {
	for i, r := range rows {
		if n := c.n[i]; n != 0 {
			c.port[r.port] += float64(n) * r.occ
			c.classes[r.class] += n
		}
	}
}

// dyn returns the segment's dynamic instruction count.
func (c *costAcc) dyn() uint64 {
	var d uint64
	for _, n := range c.classes {
		d += n
	}
	return d
}

// computeCycles returns the port/issue-bound compute time of a folded
// segment.
func (c *costAcc) computeCycles(issueWidth int) float64 {
	t := float64(c.dyn()) / float64(issueWidth)
	for _, p := range c.port {
		if p > t {
			t = p
		}
	}
	return t
}

// addInto merges a folded accumulator into result aggregates.
func (c *costAcc) addInto(r *Result) {
	for i := range c.port {
		r.PortCycles[i] += c.port[i]
	}
	r.DynInstrs += c.dyn()
	r.Flops += c.flops
	for i := range c.classes {
		r.ClassCounts[i] += c.classes[i]
	}
}

// FusedInstrs always returns 0. Superinstruction fusion was removed; the
// function remains only because the benchmark module still reports a
// fused-instruction fraction from it.
func FusedInstrs() uint64 { return 0 }

// ReplayedInstrs always returns 0. The engine interprets every
// instruction; the function remains only because the benchmark module
// still reports a replayed-instruction fraction from it.
func ReplayedInstrs() uint64 { return 0 }
