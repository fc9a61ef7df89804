package gap

// Coordinator-side remote execution. A Remote (implemented over HTTP by
// internal/serve's worker Pool) executes one measurement cell on a
// worker daemon; the scheduler routes every memo-missing cell through it
// when one is configured, falling back to local execution whenever the
// remote path fails for any reason other than the caller's own context
// expiring. The contract that keeps merged results byte-identical to a
// single-process run: the wire format is the persistent cache's entry
// codec (exec.Result round-trips float64 exactly), and the worker
// derives the cell key from the same full machine model the coordinator
// shipped — a key mismatch is a protocol error, never silently accepted.

import (
	"context"
	"encoding/json"
	"fmt"

	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
)

// CellSpec is the wire description of one measurement cell: everything a
// worker needs to execute it, with the machine as a full serialized
// model (machine.MarshalModel) because experiment machines are routinely
// mutated clones of presets that only the coordinator holds.
type CellSpec struct {
	Bench           string          `json:"bench"`
	Version         string          `json:"version"`
	Machine         json.RawMessage `json:"machine"`
	N               int             `json:"n"`
	Threads         int             `json:"threads,omitempty"`
	DisablePrefetch bool            `json:"disable_prefetch,omitempty"`
	SkipCheck       bool            `json:"skip_check,omitempty"`

	// Source, when non-empty, is the canonical source of a user-submitted
	// kernel (kernels.Submitted): Bench then names no registered
	// benchmark, and the worker reconstructs the kernel from this source
	// instead — dynamic registration over the wire. The reconstruction is
	// verified: a submitted kernel's name is derived from its canonical
	// source, so a worker whose rebuilt name disagrees with Bench rejects
	// the spec instead of measuring the wrong program.
	Source string `json:"source,omitempty"`
}

// Remote executes one cell somewhere else. key is the cell's canonical
// key string (cellKey.String()): implementations shard on it and verify
// the worker's response against it. A Remote must return an error — not
// a guess — when no worker can produce a verified result; the scheduler
// then runs the cell locally.
type Remote interface {
	MeasureCell(ctx context.Context, spec CellSpec, key string) (*Measurement, error)
}

// WithRemote returns a copy of the Config whose scheduler routes cell
// execution through r (the coordinator mode). nil leaves execution
// local.
func (c Config) WithRemote(r Remote) Config {
	c.remote = r
	return c
}

// spec serializes the cell for the wire. The effective thread count is
// NOT resolved here: the worker derives it from the same rules
// (Cell.threads), and shipping the unresolved value keeps the worker's
// memo key identical to the coordinator's.
func (c Cell) spec(skipCheck bool) (CellSpec, error) {
	mb, err := machine.MarshalModel(c.Machine)
	if err != nil {
		return CellSpec{}, err
	}
	spec := CellSpec{
		Bench:           c.Bench.Name(),
		Version:         c.Version.String(),
		Machine:         mb,
		N:               c.N,
		Threads:         c.Threads,
		DisablePrefetch: c.DisablePrefetch,
		SkipCheck:       skipCheck,
	}
	if sb, ok := c.Bench.(sourceBench); ok {
		spec.Source = sb.SubmitSource()
	}
	return spec, nil
}

// sourceBench is implemented by benchmarks that carry their own source
// (kernels.Submitted); their cells ship it to workers instead of relying
// on the registry.
type sourceBench interface {
	kernels.Benchmark
	SubmitSource() string
}

// cell reconstructs the executable cell from a wire spec (worker side).
func (s CellSpec) cell() (Cell, error) {
	var b kernels.Benchmark
	var err error
	if s.Source != "" {
		sub, serr := kernels.FromSource(s.Source)
		if serr != nil {
			return Cell{}, fmt.Errorf("gap: submitted cell source: %w", serr)
		}
		if sub.Name() != s.Bench {
			return Cell{}, fmt.Errorf("gap: submitted cell names %q but its source hashes to %q", s.Bench, sub.Name())
		}
		b = sub
	} else if b, err = kernels.ByName(s.Bench); err != nil {
		return Cell{}, err
	}
	v, ok := versionByName(s.Version)
	if !ok {
		return Cell{}, fmt.Errorf("gap: unknown version %q", s.Version)
	}
	m, err := machine.UnmarshalModel(s.Machine)
	if err != nil {
		return Cell{}, err
	}
	return Cell{
		Bench: b, Version: v, Machine: m, N: s.N,
		Threads: s.Threads, DisablePrefetch: s.DisablePrefetch,
	}, nil
}

// ExecuteCellSpec is the worker-side entry point behind POST /v1/cell:
// it decodes the spec, measures the cell through the worker memo
// (process-wide across requests, with the same optional -cache-dir
// persistence — so workers warm-restart and coalesce hedged duplicates
// too), and returns the encoded cell entry. The returned bytes carry the
// worker's own derived key; a coordinator whose key disagrees must
// discard the result, which turns any model-serialization drift into a
// loud failure instead of a byte-diff.
//
// The worker memo is deliberately separate from the coordinator's
// sharedMemo: a coordinator holds a singleflight slot for a cell while
// its remote call is in flight, so a daemon serving /v1/cell from the
// same process (one listed in its own -workers, or an in-process test
// topology) would deadlock on its own in-progress entry if both paths
// shared one memo.
func ExecuteCellSpec(ctx context.Context, spec CellSpec, jobs int) ([]byte, error) {
	cell, err := spec.cell()
	if err != nil {
		return nil, err
	}
	ms, err := NewScheduler(jobs, workerMemo, spec.SkipCheck).Run(ctx, []Cell{cell})
	if err != nil {
		return nil, err
	}
	return encodeMeasurement(cell.key(spec.SkipCheck).String(), ms[0])
}

// DecodeCellResult decodes a worker's /v1/cell response, validating its
// schema and key against the coordinator's expectation (coordinator
// side of the wire contract).
func DecodeCellResult(b []byte, wantKey string) (*Measurement, error) {
	return decodeMeasurement(b, wantKey)
}
