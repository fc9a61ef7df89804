// Command ninjagapd is the measurement service daemon: it serves the
// reproduction's measurements, figures, tables and bench snapshots over
// HTTP, backed by the experiment scheduler and the process-wide memo
// cache (so repeated and overlapping requests hit the cache instead of
// re-simulating).
//
// Usage:
//
//	ninjagapd [flags]
//
// Endpoints:
//
//	GET /healthz                        liveness probe
//	GET /metrics                        memo + request counters, latency histograms
//	GET /v1/measure?bench=B&version=V   one measured cell (&machine=, &n=, &threads=)
//	GET /v1/figure/{fig1..fig8,ablate}  one evaluation figure
//	GET /v1/table/{table1,table2}       one characterization table
//	GET /v1/snapshot                    the ninjagap-bench/v1 grid snapshot
//	POST /v1/submit                     compile + measure user kernel source
//	                                    (raw source or JSON body; see
//	                                    docs/SUBMIT_API.md)
//
// Figure/table/snapshot responses default to JSON and are byte-identical
// to `ninjagap <cmd> -json` at the same scale/jobs; `?format=text` and
// (for tables/snapshot) `?format=csv` select the other encodings, and
// `?scale=`, `?bench=` override the server defaults per request.
//
// Flags:
//
//	-addr :8321        listen address
//	-scale S           default problem-size multiplier: a number or a
//	                   named preset (smoke|small|medium|full; default 1)
//	-pprof ADDR        serve net/http/pprof on ADDR (off by default; the
//	                   debug surface gets its own listener)
//	-jobs N            per-run scheduler worker bound (0 = GOMAXPROCS)
//	-bench a,b,c       default benchmark subset (all when empty)
//	-max-inflight N    concurrent experiment runs admitted (2)
//	-max-queue N       waiting requests beyond that before 503 (8)
//	-timeout D         per-request measurement deadline (2m)
//	-drain D           graceful-shutdown drain budget on SIGINT/SIGTERM (30s)
//	-cache-dir DIR     persistent measurement cache: restarts serve
//	                   previously measured cells from disk instead of
//	                   re-simulating (warm restart)
//	-workers H1,H2,... coordinator mode: shard each run's cells across
//	                   these worker daemons (consistent hashing on the
//	                   cell key, hedged retries, local fallback)
//	-hedge D           straggler re-dispatch delay in coordinator mode (2s)
//	-cell-inflight N   concurrent /v1/cell executions served as a worker
//	                   (GOMAXPROCS)
//	-submit-max-bytes N  /v1/submit source + body byte cap (65536); the
//	                   other submission limits (AST size, loop depth,
//	                   trip count, simulated work) are fixed defaults
//
// A burst of requests beyond -max-inflight + -max-queue receives 503
// (with Retry-After) rather than spawning unbounded worker pools; a
// request that exceeds -timeout receives 504, and its abandoned cells are
// not cached. On SIGINT/SIGTERM the daemon stops accepting connections
// and drains in-flight measurements for up to -drain before exiting.
// docs/OPERATIONS.md covers running the daemon as a service, the cache
// directory layout, and coordinator/worker topologies.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ninjagap/internal/gap"
	"ninjagap/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8321", "listen address")
	scaleArg := flag.String("scale", "1", "default problem-size multiplier (number or smoke|small|medium|full)")
	jobs := flag.Int("jobs", 0, "per-run scheduler worker bound (0 = GOMAXPROCS)")
	benches := flag.String("bench", "", "default comma-separated benchmark subset")
	maxInFlight := flag.Int("max-inflight", 2, "concurrent experiment runs admitted")
	maxQueue := flag.Int("max-queue", 8, "waiting requests beyond -max-inflight before 503")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request measurement deadline")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (off when empty)")
	cacheDir := flag.String("cache-dir", "", "persistent measurement cache directory (warm restarts)")
	workers := flag.String("workers", "", "coordinator mode: comma-separated worker daemon addresses")
	hedge := flag.Duration("hedge", 2*time.Second, "coordinator straggler re-dispatch delay")
	cellInFlight := flag.Int("cell-inflight", 0, "concurrent /v1/cell executions as a worker (0 = GOMAXPROCS)")
	submitMaxBytes := flag.Int("submit-max-bytes", 0, "/v1/submit source byte cap (0 = 65536)")
	flag.Parse()
	scale, err := gap.ParseScale(*scaleArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ninjagapd:", err)
		os.Exit(2)
	}
	if *cacheDir != "" {
		if err := gap.SetCacheDir(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "ninjagapd:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ninjagapd: persistent cache at %s\n", *cacheDir)
	}

	// Opt-in profiling endpoint, on its own listener so the debug surface
	// never shares a port with the measurement API.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			fmt.Fprintf(os.Stderr, "ninjagapd: pprof on %s\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "ninjagapd: pprof:", err)
			}
		}()
	}

	cfg := serve.Config{
		Scale:          scale,
		Jobs:           *jobs,
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		RequestTimeout: *timeout,
		HedgeDelay:     *hedge,
		CellInFlight:   *cellInFlight,
	}
	cfg.Submit.MaxSourceBytes = *submitMaxBytes
	if *benches != "" {
		cfg.Benches = strings.Split(*benches, ",")
	}
	if *workers != "" {
		cfg.Workers = strings.Split(*workers, ",")
		fmt.Fprintf(os.Stderr, "ninjagapd: coordinator mode, sharding cells across %d workers (hedge %v)\n",
			len(cfg.Workers), *hedge)
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: serve.New(cfg).Handler(),
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "ninjagapd: listening on %s (scale %g, %d in-flight, %d queued, %v timeout)\n",
		*addr, scale, *maxInFlight, *maxQueue, *timeout)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "ninjagapd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "ninjagapd: shutting down, draining in-flight measurements")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "ninjagapd: drain incomplete:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "ninjagapd: drained, exiting")
}
