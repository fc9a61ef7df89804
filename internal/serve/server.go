// Package serve is the HTTP service layer of the measurement daemon
// (cmd/ninjagapd). It puts the experiment scheduler and the process-wide
// memo cache behind a long-running API:
//
//	GET /v1/measure?bench=B&version=V[&machine=M&n=N&threads=T]  one cell
//	GET /v1/figure/{id}    fig1..fig8, ablate
//	GET /v1/table/{id}     table1, table2
//	GET /v1/snapshot       the ninjagap-bench/v1 grid snapshot
//	POST /v1/submit        measure user-submitted kernel source (submit.go)
//	GET /healthz           liveness
//	GET /metrics           memo + request counters, latency histograms
//
// Responses render through the same gap.Dispatch/Output.Emit layer as
// cmd/ninjagap, so a JSON figure body is byte-identical to the CLI's
// `-json` output for the same configuration (CI diffs /v1/snapshot
// against `ninjagap bench-export`).
//
// Robustness: every measuring endpoint passes through a bounded admission
// semaphore — at most MaxInFlight experiment runs execute concurrently,
// at most MaxQueue more wait, and further requests are rejected with 503
// instead of forking ever more worker pools. Each admitted request gets a
// context deadline that is plumbed through Scheduler.Run into cell
// execution; deadline expiry surfaces as 504 and never poisons the memo
// cache (cancelled computations are evicted, not cached). Graceful
// shutdown is the caller's http.Server.Shutdown, which drains in-flight
// requests before exit.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ninjagap/internal/gap"
	"ninjagap/internal/kernels"
	"ninjagap/internal/machine"
	"ninjagap/internal/report"
	"ninjagap/internal/submit"
)

// Config parameterizes the daemon.
type Config struct {
	// Scale is the default problem-size multiplier (1.0 when zero);
	// requests may override it with ?scale=.
	Scale float64
	// Jobs bounds each experiment run's worker pool (0 = GOMAXPROCS).
	Jobs int
	// Benches restricts the default suite (nil = all); requests may
	// override it with ?bench=a,b,c.
	Benches []string
	// MaxInFlight bounds concurrently executing experiment runs
	// (default 2).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot; beyond it
	// requests are rejected with 503 (default 8).
	MaxQueue int
	// RequestTimeout is the per-request deadline plumbed into cell
	// execution (default 2 minutes).
	RequestTimeout time.Duration
	// Submit bounds POST /v1/submit submissions (zero fields take
	// submit.DefaultLimits). Submit.MaxSourceBytes doubles as the
	// endpoint's request-body byte cap.
	Submit submit.Limits

	// Workers, when non-empty, puts the daemon in coordinator mode: the
	// cell set of every experiment run is sharded across these worker
	// daemons (base URLs or host:port) by consistent hashing on the cell
	// key, with hedged retries and local fallback. See pool.go.
	Workers []string
	// HedgeDelay is the coordinator's straggler re-dispatch delay: a
	// cell unanswered by its primary worker for this long is also sent
	// to the next worker on the ring (default 2s).
	HedgeDelay time.Duration
	// CellInFlight bounds concurrently executing /v1/cell requests on a
	// worker (default GOMAXPROCS). The per-cell bound is separate from
	// MaxInFlight, which admits whole experiment runs: one coordinator
	// figure fans out into many cell requests, and throttling those to
	// MaxInFlight would starve the fleet.
	CellInFlight int
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 8
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = 2 * time.Second
	}
	if c.CellInFlight <= 0 {
		c.CellInFlight = runtime.GOMAXPROCS(0)
	}
	return c
}

// errQueueFull rejects a request when MaxInFlight runs are executing and
// MaxQueue more are already waiting.
var errQueueFull = errors.New("admission queue full")

// figureIDs are the /v1/figure experiments; tableIDs the /v1/table ones.
var figureIDs = map[string]bool{
	"fig1": true, "fig2": true, "fig3": true, "fig4": true,
	"fig5": true, "fig6": true, "fig7": true, "fig8": true, "ablate": true,
}
var tableIDs = map[string]bool{"table1": true, "table2": true}

// Server is the daemon's handler set. Build with New, mount with Handler.
type Server struct {
	cfg     Config
	sem     chan struct{}
	cellSem chan struct{}
	waiting atomic.Int64
	met     *metrics
	mux     *http.ServeMux

	// pool is the coordinator's worker fleet; nil outside coordinator
	// mode. Experiment configs route cell execution through it.
	pool *Pool

	// sub processes kernel submissions (POST /v1/submit).
	sub *submit.Service

	// dispatch runs an experiment driver under ctx; a test seam,
	// gap.Dispatch in production.
	dispatch func(ctx context.Context, id string, cfg gap.Config) (gap.Output, error)
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxInFlight),
		cellSem: make(chan struct{}, cfg.CellInFlight),
		pool:    NewPool(cfg.Workers, cfg.HedgeDelay),
		sub:     submit.NewService(cfg.Submit),
		dispatch: func(ctx context.Context, id string, cfg gap.Config) (gap.Output, error) {
			return gap.Dispatch(id, cfg.WithContext(ctx))
		},
	}
	s.met = newMetrics([]string{
		"/healthz", "/metrics", "/v1/measure", "/v1/figure", "/v1/table", "/v1/snapshot", "/v1/cell", "/v1/submit",
	})
	s.met.pool = s.pool
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/measure", s.instrument("/v1/measure", s.handleMeasure))
	mux.HandleFunc("GET /v1/figure/{id}", s.instrument("/v1/figure", s.handleFigure))
	mux.HandleFunc("GET /v1/table/{id}", s.instrument("/v1/table", s.handleTable))
	mux.HandleFunc("GET /v1/snapshot", s.instrument("/v1/snapshot", s.handleSnapshot))
	mux.HandleFunc("POST /v1/cell", s.instrument("/v1/cell", s.handleCell))
	mux.HandleFunc("POST /v1/submit", s.instrument("/v1/submit", s.handleSubmit))
	s.mux = mux
	return s
}

// Handler returns the daemon's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// instrument wraps a handler with in-flight/latency/error accounting.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	em := s.met.endpoints[route]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.inFlight.Add(1)
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		s.met.inFlight.Add(-1)
		s.met.completed.Add(1)
		em.observe(time.Since(start), rec.status)
	}
}

// admit takes an execution slot, waiting (bounded) if all are busy.
// The returned release func must be called when the run finishes.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	default:
	}
	if s.waiting.Add(1) > int64(s.cfg.MaxQueue) {
		s.waiting.Add(-1)
		return nil, errQueueFull
	}
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

// requestConfig builds the experiment Config for one request: server
// defaults, query overrides (scale, bench), and the request context with
// its deadline.
func (s *Server) requestConfig(r *http.Request) (gap.Config, error) {
	cfg := gap.Config{Scale: s.cfg.Scale, Jobs: s.cfg.Jobs, Benches: s.cfg.Benches}
	if s.pool != nil {
		// Coordinator mode: route this run's cell execution through the
		// worker fleet (with local fallback per cell).
		cfg = cfg.WithRemote(s.pool)
	}
	q := r.URL.Query()
	if v := q.Get("scale"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			return cfg, fmt.Errorf("bad scale %q", v)
		}
		cfg.Scale = f
	}
	if v := q.Get("bench"); v != "" {
		names := strings.Split(v, ",")
		for _, name := range names {
			if _, err := kernels.ByName(name); err != nil {
				return cfg, err
			}
		}
		cfg.Benches = names
	}
	return cfg, nil
}

// format resolves the response encoding (default json over HTTP).
func format(r *http.Request) string {
	if f := r.URL.Query().Get("format"); f != "" {
		return f
	}
	return "json"
}

// runDriver admits, runs and emits one experiment under the request's
// deadline, mapping failures to HTTP statuses.
func (s *Server) runDriver(w http.ResponseWriter, r *http.Request, id string) {
	cfg, err := s.requestConfig(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	release, err := s.admit(ctx)
	if err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	defer release()

	out, err := s.dispatch(ctx, id, cfg)
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	s.writeOutput(w, r, out)
}

// writeOutput buffers the selected encoding (so errors can still change
// the status line) and sends it.
func (s *Server) writeOutput(w http.ResponseWriter, r *http.Request, out gap.Output) {
	var buf bytes.Buffer
	f := format(r)
	if err := out.Emit(&buf, f); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch f {
	case "json":
		w.Header().Set("Content-Type", "application/json")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	if errors.Is(err, errQueueFull) {
		s.met.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "too many queued measurement requests", http.StatusServiceUnavailable)
		return
	}
	s.writeRunError(w, err)
}

func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.met.timeouts.Add(1)
		http.Error(w, "measurement exceeded the request deadline", http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		// Client went away; the status is for the log only.
		http.Error(w, "request cancelled", http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	b, err := s.met.snapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(b, '\n'))
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !figureIDs[id] {
		http.Error(w, fmt.Sprintf("unknown figure %q", id), http.StatusNotFound)
		return
	}
	s.runDriver(w, r, id)
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !tableIDs[id] {
		http.Error(w, fmt.Sprintf("unknown table %q", id), http.StatusNotFound)
		return
	}
	s.runDriver(w, r, id)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s.runDriver(w, r, "bench-export")
}

// handleCell is the worker half of the coordinator protocol: it
// executes one fully specified cell (complete machine model included —
// coordinators measure on mutated clones no registry holds) through this
// process's own scheduler path, so worker memo and -cache-dir caching
// apply, and responds with the encoded cell entry. Admission is the
// per-cell semaphore (CellInFlight), not the run semaphore: one
// coordinator figure fans out into many cells, and those must be able
// to fill the worker's cores.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	var req cellRequest
	body, ok := s.readBody(w, r, maxCellBodyBytes)
	if !ok {
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, fmt.Sprintf("bad cell request: %v", err), http.StatusBadRequest)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	select {
	case s.cellSem <- struct{}{}:
		defer func() { <-s.cellSem }()
	case <-ctx.Done():
		s.writeRunError(w, context.Cause(ctx))
		return
	}

	// Cell execution bounded to one scheduler worker: parallelism comes
	// from concurrent /v1/cell requests (CellInFlight of them), not from
	// nested fan-out of a single cell.
	entry, err := gap.ExecuteCellSpec(ctx, req.Spec, 1)
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	if req.Key != "" {
		// Cross-check the coordinator's key against our own derivation;
		// disagreement means the two processes would file this
		// measurement under different cells — refuse loudly.
		if _, err := gap.DecodeCellResult(entry, req.Key); err != nil {
			http.Error(w, fmt.Sprintf("cell key mismatch: %v", err), http.StatusConflict)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(entry)
}

// maxCellBodyBytes caps a /v1/cell request body. A cell spec is a few
// KB of machine model plus, for submitted cells, a source capped far
// below this by the submit limits.
const maxCellBodyBytes = 1 << 20

// readBody reads a POST body under a hard byte cap. A body over the cap
// is rejected with 413 (the response is already written; the caller just
// returns), any other read failure with 400. Unlike io.LimitReader,
// http.MaxBytesReader makes an oversized body an explicit error instead
// of silently truncating it into a confusing parse failure downstream.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
				http.StatusRequestEntityTooLarge)
			return nil, false
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return body, true
}

// handleMeasure measures one (bench, version, machine, n, threads) cell
// through the scheduler and the shared memo cache, returning its
// BenchRecord.
func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	b, err := kernels.ByName(q.Get("bench"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var version kernels.Version
	found := false
	for _, v := range kernels.Versions() {
		if v.String() == q.Get("version") {
			version, found = v, true
		}
	}
	if !found {
		http.Error(w, fmt.Sprintf("unknown version %q", q.Get("version")), http.StatusBadRequest)
		return
	}
	machineName := q.Get("machine")
	if machineName == "" {
		machineName = "WestmereX980"
	}
	m, err := machine.ByName(machineName)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cfg, err := s.requestConfig(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	n := gap.SizeFor(b, cfg)
	if v := q.Get("n"); v != "" {
		nv, err := strconv.Atoi(v)
		if err != nil || nv <= 0 {
			http.Error(w, fmt.Sprintf("bad n %q", v), http.StatusBadRequest)
			return
		}
		n = gap.LegalN(b, nv)
	}
	threads := 0
	if v := q.Get("threads"); v != "" {
		tv, err := strconv.Atoi(v)
		if err != nil || tv < 0 {
			http.Error(w, fmt.Sprintf("bad threads %q", v), http.StatusBadRequest)
			return
		}
		threads = tv
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	defer release()

	cell := gap.Cell{Bench: b, Version: version, Machine: m, N: n, Threads: threads}
	ms, err := gap.RunCells(cfg.WithContext(ctx), []gap.Cell{cell})
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	meas := ms[0]
	rec := report.BenchRecord{
		Bench: meas.Bench, Version: meas.Version.String(), Machine: meas.Machine,
		N: meas.N, Threads: meas.Threads, Seconds: meas.Res.Seconds,
		GFlops: meas.Res.GFlops, BoundBy: meas.Res.BoundBy,
	}
	s.writeOutput(w, r, gap.Output{
		Text: func() string {
			return fmt.Sprintf("%s/%s on %s (n=%d, %d threads): %v\n",
				rec.Bench, rec.Version, rec.Machine, rec.N, rec.Threads, meas.Res)
		},
		Data: rec,
	})
}
