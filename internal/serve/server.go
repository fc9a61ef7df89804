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
//	GET /metrics           memo, reply-memo and request counters, latency histograms
//
// Responses render through the same gap.Dispatch/Output.Emit layer as
// cmd/ninjagap, so a JSON figure body is byte-identical to the CLI's
// `-json` output for the same configuration (CI diffs /v1/snapshot
// against `ninjagap bench-export`). Figure, table, snapshot and measure
// replies are then kept in a bounded per-Server reply memo (replies.go)
// and answered from it, ahead of admission, on every later identical
// request.
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
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
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
	waiting atomic.Int64
	met     *metrics
	mux     *http.ServeMux

	// sub processes kernel submissions (POST /v1/submit).
	sub *submit.Service

	// replies holds rendered figure, table and snapshot replies.
	replies *replyMemo

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
		sub:     submit.NewService(cfg.Submit),
		replies: newReplyMemo(),
		dispatch: func(ctx context.Context, id string, cfg gap.Config) (gap.Output, error) {
			return gap.Dispatch(id, cfg.WithContext(ctx))
		},
	}
	s.met = newMetrics([]string{
		"/healthz", "/metrics", "/v1/measure", "/v1/figure", "/v1/table", "/v1/snapshot", "/v1/submit",
	})
	s.met.replies = s.replies
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/measure", s.instrument("/v1/measure", s.handleMeasure))
	mux.HandleFunc("GET /v1/figure/{id}", s.instrument("/v1/figure", s.handleFigure))
	mux.HandleFunc("GET /v1/table/{id}", s.instrument("/v1/table", s.handleTable))
	mux.HandleFunc("GET /v1/snapshot", s.instrument("/v1/snapshot", s.handleSnapshot))
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
// defaults and the query's overrides. ?scale= parses as the CLIs' -scale
// does (gap.ParseScale): a positive finite number or a preset name.
func (s *Server) requestConfig(q url.Values) (gap.Config, error) {
	cfg := gap.Config{Scale: s.cfg.Scale, Jobs: s.cfg.Jobs, Benches: s.cfg.Benches}
	if v := q.Get("scale"); v != "" {
		f, err := gap.ParseScale(v)
		if err != nil {
			return cfg, err
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
func format(q url.Values) string {
	if f := q.Get("format"); f != "" {
		return f
	}
	return "json"
}

// runDriver answers one experiment driver's request through the reply
// memo.
func (s *Server) runDriver(w http.ResponseWriter, r *http.Request, id string) {
	q := r.URL.Query()
	cfg, err := s.requestConfig(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	f := format(q)
	s.memoized(w, r, replyKey(id, cfg, f), f, func(ctx context.Context) (gap.Output, error) {
		return s.dispatch(ctx, id, cfg)
	})
}

// memoized answers a validated request from the reply memo under key, or
// admits it, runs it under the request's deadline, renders it in format f
// in full (so a bad format can still change the status line) and stores
// the reply. Failures map to HTTP statuses and are never stored. A
// memoized reply takes no execution slot.
func (s *Server) memoized(w http.ResponseWriter, r *http.Request, key, f string,
	run func(ctx context.Context) (gap.Output, error)) {
	if rep, ok := s.replies.get(key); ok {
		rep.write(w)
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

	out, err := run(ctx)
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	rep, err := render(out, f)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.replies.put(key, rep)
	rep.write(w)
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
// BenchRecord. The request is validated and resolved in full first, so
// that a repeat is answered from the reply memo before admission.
func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	b, err := kernels.ByName(q.Get("bench"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	version, err := kernels.ParseVersion(q.Get("version"))
	if err != nil {
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
	cfg, err := s.requestConfig(q)
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
	// The engine builds a thread context, with its own cache hierarchy,
	// per simulated thread, so an unbounded count would exhaust host
	// memory; no machine runs more threads than it has.
	threads := 0
	if v := q.Get("threads"); v != "" {
		tv, err := strconv.Atoi(v)
		if err != nil || tv < 0 {
			http.Error(w, fmt.Sprintf("bad threads %q", v), http.StatusBadRequest)
			return
		}
		if hw := m.HWThreads(); tv > hw {
			http.Error(w, fmt.Sprintf("threads %d exceeds %s's %d hardware threads", tv, m.Name, hw),
				http.StatusBadRequest)
			return
		}
		threads = tv
	}

	f := format(q)
	cell := gap.Cell{Bench: b, Version: version, Machine: m, N: n, Threads: threads}
	s.memoized(w, r, measureKey(cell, f), f, func(ctx context.Context) (gap.Output, error) {
		ms, err := gap.RunCells(cfg.WithContext(ctx), []gap.Cell{cell})
		if err != nil {
			return gap.Output{}, err
		}
		meas := ms[0]
		rec := report.BenchRecord{
			Bench: meas.Bench, Version: meas.Version.String(), Machine: meas.Machine,
			N: meas.N, Threads: meas.Threads, Seconds: meas.Res.Seconds,
			GFlops: meas.Res.GFlops, BoundBy: meas.Res.BoundBy,
		}
		return gap.Output{
			Text: func() string {
				return fmt.Sprintf("%s/%s on %s (n=%d, %d threads): %v\n",
					rec.Bench, rec.Version, rec.Machine, rec.N, rec.Threads, meas.Res)
			},
			Data: rec,
		}, nil
	})
}
