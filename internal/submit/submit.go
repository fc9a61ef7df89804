// Package submit implements the kernel submission service: restricted-C
// loop nests from untrusted users are admitted under hard resource
// limits, compiled through the standard lang → compiler pipeline, and
// measured across machine presets at the source-derived rungs of the
// effort ladder (naive, autovec, pragma) — through the same experiment
// scheduler as the built-in figures, so submitted cells are memoized
// and persisted exactly like built-in ones.
//
// The complete response is additionally memoized under the canonical
// source hash (key family "ninjagap-submit/v1", layered over the same
// -cache-dir store as measurement cells): resubmitting a kernel —
// modulo whitespace and comments — computes zero cells and returns
// byte-identical bytes, warm or cold. Rejections are structured
// (*Error) and never cached anywhere.
//
// docs/SUBMIT_API.md documents the HTTP surface (POST /v1/submit on
// ninjagapd and the `ninjagap submit` command share this package).
package submit

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"ninjagap/internal/compiler"
	"ninjagap/internal/exec"
	"ninjagap/internal/gap"
	"ninjagap/internal/kernels"
	"ninjagap/internal/lang"
	"ninjagap/internal/machine"
	"ninjagap/internal/report"
)

// Schema tags both the response format and the response-memo key family.
// Bump it when either changes; old persisted responses become
// unreachable, which is the intended invalidation mechanism (same rule
// as gap.CellSchema).
const Schema = "ninjagap-submit/v1"

// Code classifies a submission rejection.
type Code string

// Rejection codes.
const (
	CodeBadRequest Code = "bad_request"    // malformed request, unknown machine/version
	CodeTooLarge   Code = "too_large"      // source exceeds the byte cap
	CodeParse      Code = "parse_error"    // source does not parse or validate
	CodeLimit      Code = "limit_exceeded" // AST/depth/footprint/trip/work cap
	CodeCompile    Code = "compile_error"  // compiler rejected the kernel
	CodeExec       Code = "exec_error"     // engine rejected it at runtime (e.g. out-of-bounds)
)

// Error is a structured rejection, safe to serialize to the submitter.
type Error struct {
	Code Code   `json:"code"`
	Msg  string `json:"error"`
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Msg) }

// HTTPStatus maps the rejection to its response status: 413 for the
// byte cap, 400 for malformed requests, 422 for every kernel the
// service understood but refuses to (or cannot) measure.
func (e *Error) HTTPStatus() int {
	switch e.Code {
	case CodeTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeBadRequest:
		return http.StatusBadRequest
	default:
		return http.StatusUnprocessableEntity
	}
}

// reject builds an *Error.
func reject(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Limits bounds one submission.
type Limits struct {
	// MaxSourceBytes caps the raw source length. The HTTP layer enforces
	// the same number on the request body with http.MaxBytesReader.
	MaxSourceBytes int
	// MaxTotalWork caps the summed per-cell work estimate of the cells a
	// request would actually compute (cached cells are free): the
	// bind-time total-simulated-work ceiling.
	MaxTotalWork float64
	// Lang are the parse-time AST caps and the per-cell work ceiling.
	Lang lang.Limits
}

// DefaultLimits returns the service defaults: a full submission (three
// versions across all five presets) stays well under a minute even at
// every cap simultaneously.
func DefaultLimits() Limits {
	return Limits{
		MaxSourceBytes: 64 << 10,
		MaxTotalWork:   1 << 27,
		Lang:           lang.DefaultLimits(),
	}
}

// withDefaults fills zero fields.
func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxSourceBytes <= 0 {
		l.MaxSourceBytes = d.MaxSourceBytes
	}
	if l.MaxTotalWork <= 0 {
		l.MaxTotalWork = d.MaxTotalWork
	}
	if l.Lang == (lang.Limits{}) {
		l.Lang = d.Lang
	}
	return l
}

// Request is one submission. Over HTTP it is either this JSON object or
// a raw kernel-source body (which means the zero defaults).
type Request struct {
	// Source is the restricted-C kernel text.
	Source string `json:"source"`
	// Machines restricts the preset machines measured (default: all, in
	// registry order). Response cells follow this order.
	Machines []string `json:"machines,omitempty"`
	// Versions restricts the effort rungs (default: naive, autovec,
	// pragma — the full source-derived ladder).
	Versions []string `json:"versions,omitempty"`
}

// CellResult is one measured point: the per-cell record the built-in
// figures report, plus the full engine result and the compiler's
// vectorization report for the cell's version.
type CellResult struct {
	report.BenchRecord
	// VecReport is the compiler's per-loop vectorization report.
	VecReport *compiler.Report `json:"vec_report,omitempty"`
	// Result is the complete engine measurement.
	Result *exec.Result `json:"result"`
}

// Response is the measured submission. Gap is 0 in every cell (a
// submission has no ninja ceiling to compare against); Speedup is
// relative to the same machine's naive cell when naive was measured.
type Response struct {
	Schema string `json:"schema"`
	// Kernel is the source-level kernel name.
	Kernel string `json:"kernel"`
	// Bench is the content-derived benchmark name ("submit:<hash16>")
	// the cells are filed under in the measurement cache.
	Bench        string `json:"bench"`
	SourceSHA256 string `json:"source_sha256"`
	// Canonical is the normalized source actually measured — what the
	// submission hashes to, with comments and formatting gone.
	Canonical string       `json:"canonical_source"`
	N         int          `json:"n"`
	Cells     []CellResult `json:"cells"`
}

// Outcome pairs the response bytes with request-varying metadata. The
// metadata must stay out of the body (byte-identity warm vs cold is the
// contract); the HTTP layer reports it in X-Ninjagap-* headers instead.
type Outcome struct {
	// Body is the response JSON, newline-terminated, byte-identical for
	// equal memo keys.
	Body []byte
	// Key is the response-memo key.
	Key string
	// MemoHit reports whether Body came from the response memo (memory
	// or disk) rather than a fresh build.
	MemoHit bool
	// Computed counts the cells this request actually executed (absent
	// from every cache layer at probe time). 0 on every memo hit.
	Computed int
}

// maxMemoEntries bounds the in-memory response memo; beyond it an
// arbitrary entry is dropped (the persistent layer, when attached,
// still holds everything).
const maxMemoEntries = 1024

// Service processes submissions. Safe for concurrent use.
type Service struct {
	lim Limits

	mu   sync.Mutex
	memo map[string][]byte
}

// NewService builds a Service with the given limits (zero fields take
// defaults).
func NewService(lim Limits) *Service {
	return &Service{lim: lim.withDefaults(), memo: map[string][]byte{}}
}

// Limits returns the service's effective limits.
func (s *Service) Limits() Limits { return s.lim }

// Process measures one submission under ctx. cfg supplies the scheduler
// parameters that carry over from the host (Jobs); Scale and Benches are
// ignored — submitted kernels run at their declared size. Their cells run
// their check like every other cell; a submitted kernel has no golden
// reference, so its check always passes.
//
// Rejections are returned as *Error and are never cached; context
// errors propagate as-is (the HTTP layer maps deadlines to 504). Only a
// fully built response is memoized — in memory always, on disk when a
// -cache-dir store is attached.
func (s *Service) Process(ctx context.Context, req Request, cfg gap.Config) (*Outcome, error) {
	if len(req.Source) > s.lim.MaxSourceBytes {
		return nil, reject(CodeTooLarge, "source is %d bytes (limit %d)", len(req.Source), s.lim.MaxSourceBytes)
	}
	canonical, k, err := lang.Normalize(req.Source)
	if err != nil {
		return nil, reject(CodeParse, "%v", err)
	}
	stats := lang.Analyze(k)
	if err := s.lim.Lang.Check(stats); err != nil {
		return nil, reject(CodeLimit, "%v", err)
	}
	b := kernels.FromKernel(k, canonical)
	ids, err := presetIDs(req.Machines)
	if err != nil {
		return nil, err
	}
	versions, err := resolveVersions(req.Versions)
	if err != nil {
		return nil, err
	}
	// Rejections are never memoized, so a hit is a kernel that compiled
	// at every requested level: it needs no compile, and no machine.
	key := memoKeyOf(b, ids, versions)
	if body, ok := s.lookup(key); ok {
		return &Outcome{Body: body, Key: key, MemoHit: true}, nil
	}
	machines, err := resolveMachines(req.Machines)
	if err != nil {
		return nil, err
	}
	// Compile every requested level before any cell binds: a kernel the
	// compiler rejects is a structured 422. (A loop the vectorizer merely
	// *refuses* is not an error — the refusal reason is part of the
	// measured answer.)
	for _, v := range versions {
		opt, err := compiler.ByLevel(v.String())
		if err != nil {
			return nil, reject(CodeBadRequest, "%v", err)
		}
		if _, err := compiler.Compile(k, opt); err != nil {
			return nil, reject(CodeCompile, "%s: %v", v, err)
		}
	}

	cells := make([]gap.Cell, 0, len(machines)*len(versions))
	for _, m := range machines {
		for _, v := range versions {
			cells = append(cells, gap.Cell{Bench: b, Version: v, Machine: m, N: b.DefaultN()})
		}
	}
	// Bind-time total-work ceiling: charge only the cells that would
	// actually execute — resubmissions and overlapping submissions ride
	// the measurement cache for free.
	computed := 0
	for _, c := range cells {
		if !gap.CellCached(c) {
			computed++
		}
	}
	if total := stats.Work * float64(computed); total > s.lim.MaxTotalWork {
		return nil, reject(CodeLimit,
			"request would simulate ~%.3g statement executions across %d uncached cells (limit %.3g)",
			total, computed, s.lim.MaxTotalWork)
	}

	cfg.Scale = 0
	cfg.Benches = nil
	ms, err := gap.RunCells(cfg.WithContext(ctx), cells)
	if err != nil {
		// Classify by the error, not by ctx's state: an exec error that
		// arrives after the deadline is the same 422 its memoized repeat
		// gets.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		return nil, reject(CodeExec, "%v", err)
	}
	resp := buildResponse(b, k, canonical, ms)
	body, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		return nil, err
	}
	body = append(body, '\n')
	s.store(key, body)
	return &Outcome{Body: body, Key: key, Computed: computed}, nil
}

// resolveMachines maps preset names to machines, defaulting to the full
// registry in its canonical order.
func resolveMachines(names []string) ([]*machine.Machine, error) {
	if len(names) == 0 {
		return machine.All(), nil
	}
	out := make([]*machine.Machine, len(names))
	for i, name := range names {
		m, err := machine.ByName(name)
		if err != nil {
			return nil, reject(CodeBadRequest, "%v", err)
		}
		out[i] = m
	}
	return out, nil
}

// resolveVersions maps version names to the submittable rungs,
// defaulting to all of them.
func resolveVersions(names []string) ([]kernels.Version, error) {
	if len(names) == 0 {
		return kernels.SubmitVersions(), nil
	}
	out := make([]kernels.Version, len(names))
	for i, name := range names {
		v, err := kernels.ParseVersion(name)
		if err != nil {
			return nil, reject(CodeBadRequest, "%v", err)
		}
		ok := false
		for _, sv := range kernels.SubmitVersions() {
			ok = ok || v == sv
		}
		if !ok {
			return nil, reject(CodeBadRequest,
				"version %s needs hand-written code no submission carries (submittable: naive, autovec, pragma)", v)
		}
		out[i] = v
	}
	return out, nil
}

// machineID is what the response-memo key holds of one machine.
type machineID struct {
	name string
	fp   uint64
}

// presetIDs resolves preset names, defaulting to every preset in the
// canonical order, to their memo-key identities. Each fingerprint comes
// from the machine package's once-per-process preset table, so no machine
// is built: a memo hit never needs one.
func presetIDs(names []string) ([]machineID, error) {
	if len(names) == 0 {
		names = machine.PresetNames()
	}
	out := make([]machineID, len(names))
	for i, name := range names {
		fp, err := machine.PresetFingerprint(name)
		if err != nil {
			return nil, reject(CodeBadRequest, "%v", err)
		}
		out[i] = machineID{name: name, fp: fp}
	}
	return out, nil
}

// memoKeyOf forms the response-memo identity:
//
//	ninjagap-submit/v1|<sha256(canonical)>|m=<name:fp,...>|v=<versions>|<cell schema>
//
// The machine list embeds each full-model fingerprint as 16 zero-padded
// hex digits (a preset edit changes the key), the version and machine
// lists are order-sensitive (cell order is response order), and the
// trailing gap.CellSchema ties the response to the engine/entry format
// it embeds — an engine format bump invalidates memoized submit
// responses along with their cells.
func memoKeyOf(b *kernels.Submitted, ids []machineID, versions []kernels.Version) string {
	// size bounds the key's length, so the key is one allocation.
	size := len(Schema) + len(b.SourceHash()) + len(gap.CellSchema) + 8
	for _, id := range ids {
		size += len(id.name) + 18
	}
	for _, v := range versions {
		size += len(v.String()) + 1
	}
	var sb strings.Builder
	sb.Grow(size)
	sb.WriteString(Schema)
	sb.WriteByte('|')
	sb.WriteString(b.SourceHash())
	sb.WriteString("|m=")
	for i, id := range ids {
		if i > 0 {
			sb.WriteByte(',')
		}
		var hex [16]byte
		fp := strconv.AppendUint(hex[:0], id.fp, 16)
		sb.WriteString(id.name)
		sb.WriteByte(':')
		sb.WriteString("0000000000000000"[len(fp):])
		sb.Write(fp)
	}
	sb.WriteString("|v=")
	for i, v := range versions {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte('|')
	sb.WriteString(gap.CellSchema)
	return sb.String()
}

// envelope is the persisted form of a memoized response: schema and key
// recorded verbatim and re-validated on read, like gap's cell entries.
type envelope struct {
	Schema   string          `json:"schema"`
	Key      string          `json:"key"`
	Response json.RawMessage `json:"response"`
}

// lookup consults the in-memory memo, then the persistent store.
func (s *Service) lookup(key string) ([]byte, bool) {
	s.mu.Lock()
	body, ok := s.memo[key]
	s.mu.Unlock()
	if ok {
		return body, true
	}
	st := gap.PersistentStore()
	if st == nil {
		return nil, false
	}
	raw, ok := st.Get(key)
	if !ok {
		return nil, false
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Schema != Schema || env.Key != key || len(env.Response) == 0 {
		// Damaged or foreign entry: a miss, and evicted so it stops
		// costing a decode on every lookup.
		st.Delete(key)
		return nil, false
	}
	body, ok = reindent(env.Response)
	if !ok {
		st.Delete(key)
		return nil, false
	}
	s.remember(key, body)
	return body, true
}

// reindent restores the canonical response rendering from the persisted
// compact form. Marshaling the envelope compacts its embedded
// RawMessage, and MarshalIndent is defined as Marshal followed by
// Indent, so re-indenting the compact body is byte-identical to the
// fresh rendering — the warm-vs-cold contract.
func reindent(raw json.RawMessage) ([]byte, bool) {
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		return nil, false
	}
	buf.WriteByte('\n')
	return buf.Bytes(), true
}

// store memoizes a fresh response, in memory and (when attached) on
// disk. Persistence failures degrade to "no persistence", matching the
// measurement cache's policy.
func (s *Service) store(key string, body []byte) {
	s.remember(key, body)
	st := gap.PersistentStore()
	if st == nil {
		return
	}
	raw, err := json.Marshal(envelope{Schema: Schema, Key: key, Response: body})
	if err != nil {
		return
	}
	_ = st.Put(key, raw)
}

// remember inserts into the bounded in-memory memo.
func (s *Service) remember(key string, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.memo[key]; !ok && len(s.memo) >= maxMemoEntries {
		for k := range s.memo {
			delete(s.memo, k)
			break
		}
	}
	s.memo[key] = body
}

// buildResponse assembles the deterministic response document from the
// scheduler's measurements (already in cell order).
func buildResponse(b *kernels.Submitted, k *lang.Kernel, canonical string, ms []*gap.Measurement) *Response {
	// Per-machine naive seconds, for the speedup column.
	naive := map[string]float64{}
	for _, m := range ms {
		if m.Version == kernels.Naive {
			naive[m.Machine] = m.Res.Seconds
		}
	}
	cells := make([]CellResult, len(ms))
	for i, m := range ms {
		rec := report.BenchRecord{
			Bench: m.Bench, Version: m.Version.String(), Machine: m.Machine,
			N: m.N, Threads: m.Threads, Seconds: m.Res.Seconds,
			GFlops: m.Res.GFlops, BoundBy: m.Res.BoundBy,
		}
		if base := naive[m.Machine]; base > 0 && m.Res.Seconds > 0 {
			rec.Speedup = base / m.Res.Seconds
		}
		cells[i] = CellResult{BenchRecord: rec, VecReport: m.Inst.Report, Result: m.Res}
	}
	return &Response{
		Schema:       Schema,
		Kernel:       k.Name,
		Bench:        b.Name(),
		SourceSHA256: b.SourceHash(),
		Canonical:    canonical,
		N:            b.DefaultN(),
		Cells:        cells,
	}
}
