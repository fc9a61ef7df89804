package main

// The in-process daemon the warm workload drives: the measurement
// service's real handler on a loopback listener, and a closed-loop
// client.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ninjagap/internal/gap"
	"ninjagap/internal/serve"
)

const (
	daemonScale = 0.1 // the "small" preset
	// clients is the closed loop's connection count. The host has two
	// cores; each request runs on one scheduler job, so two clients keep
	// both busy.
	clients    = 2
	daemonJobs = 1
	// traceHeader carries a traced request's trace and span ids from the
	// client to the handler wrapper, so the handler span gets its parent.
	traceHeader = "X-Perfbench-Span"
)

// daemon is one running service instance over a cache directory.
type daemon struct {
	url  string
	hs   *http.Server
	done chan error
	// tr receives the handler spans of traced requests; nil records none.
	tr atomic.Pointer[tracer]
}

// startDaemon serves a fresh serve.Server on a loopback port. When
// traced, the handler is wrapped to record a span per traced request
// into the daemon's current tracer.
func startDaemon(traced bool) (*daemon, error) {
	srv := serve.New(serve.Config{Scale: daemonScale, Jobs: daemonJobs})
	d := &daemon{done: make(chan error, 1)}
	var h http.Handler = srv.Handler()
	if traced {
		h = d.tracedHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.url, d.hs = "http://"+ln.Addr().String(), &http.Server{Handler: h}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the server down and waits for it to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// tracedHandler records a "serve.handler" span around every request
// that carries traceHeader.
func (d *daemon) tracedHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var trace, parent int
		tr := d.tr.Load()
		if _, err := fmt.Sscanf(r.Header.Get(traceHeader), "%d.%d", &trace, &parent); err != nil || tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		sp := tr.begin(trace, parent, "serve.handler")
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}

// cacheRoot makes a fresh cache directory for one daemon lifetime and
// attaches it, with empty memory tiers.
func cacheRoot(o options) (string, error) {
	dir, err := os.MkdirTemp(o.outDir, "cache-")
	if err != nil {
		return "", err
	}
	gap.ResetMemo()
	return dir, gap.SetCacheDir(dir)
}

// dropCache detaches and deletes a cache directory.
func dropCache(dir string) error {
	if err := gap.SetCacheDir(""); err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// request is one HTTP call of a workload.
type request struct {
	method string
	path   string
	body   string
	// key names the canonical request: equal keys must get equal bodies.
	key string
}

// response is what the client read.
type response struct {
	status int
	header http.Header
	body   []byte
}

// client sends requests over keep-alive connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
		Timeout:   3 * time.Minute,
	}}
}

// do sends rq and reads the whole body. traceID, when non-empty, is sent
// in traceHeader.
func (c *client) do(rq request, traceID string) (response, error) {
	var body io.Reader
	if rq.body != "" {
		body = bytes.NewReader([]byte(rq.body))
	}
	req, err := http.NewRequest(rq.method, c.base+rq.path, body)
	if err != nil {
		return response{}, err
	}
	if traceID != "" {
		req.Header.Set(traceHeader, traceID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	return response{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is one request of the closed loop.
type outcome struct {
	index   int
	ms      float64 // send until the whole body was read
	done    float64 // completion time, seconds since the loop began
	err     error
	request request
}

// loopResult is a closed loop's record.
type loopResult struct {
	outcomes []outcome
	elapsed  float64
}

// closedLoop runs `clients` clients for dur: each sends request next(i)
// for a fresh index i (counting from first) as soon as its previous reply
// is read, and check judges each reply on the client goroutines. Requests
// in flight at the deadline complete and count. With a tracer, each
// request gets a trace and a client span.
func closedLoop(c *client, dur time.Duration, first int, next func(i int) request, check func(int, request, response) error, tr *tracer) loopResult {
	var counter atomic.Int64
	counter.Store(int64(first))
	var mu sync.Mutex
	var res loopResult
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				i := int(counter.Add(1) - 1)
				rq := next(i)
				trace := tr.newTrace()
				sp := tr.begin(trace, 0, "client.request")
				id := ""
				if tr != nil {
					id = strconv.Itoa(trace) + "." + strconv.Itoa(sp)
				}
				t0 := time.Now()
				resp, err := c.do(rq, id)
				t1 := time.Now()
				tr.end(sp)
				if err == nil {
					err = check(i, rq, resp)
				}
				mu.Lock()
				res.outcomes = append(res.outcomes, outcome{index: i, ms: ms(t1.Sub(t0)),
					done: t1.Sub(start).Seconds(), err: err, request: rq})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start).Seconds()
	sort.Slice(res.outcomes, func(i, j int) bool { return res.outcomes[i].index < res.outcomes[j].index })
	return res
}

// account adds the loop's requests to the report's attempted and failed
// counts.
func (l loopResult) account(rep *report, what string) {
	for _, o := range l.outcomes {
		rep.attempted++
		if o.err != nil {
			rep.fail("%s request %d (%s %s): %v", what, o.index, o.request.method, o.request.path, o.err)
		}
	}
}

// daemonMetrics sets the end-to-end request metrics of a closed loop.
// A pass is warmBlock consecutive completions; wall_s is the median time
// a pass takes.
func daemonMetrics(rep *report, l loopResult) {
	var lat, done []float64
	for _, o := range l.outcomes {
		if o.err == nil {
			lat = append(lat, o.ms)
			done = append(done, o.done)
		}
	}
	sort.Float64s(done)
	var blocks []float64
	prev := 0.0
	for k := warmBlock; k <= len(done); k += warmBlock {
		blocks = append(blocks, done[k-1]-prev)
		prev = done[k-1]
	}
	rep.set("wall_s", "s", median(blocks), len(blocks))
	rep.set("req_per_s", "1/s", float64(len(lat))/l.elapsed, len(lat))
	rep.set("req_p50_ms", "ms", median(lat), len(lat))
	rep.set("req_p99_ms", "ms", percentile(lat, 99), len(lat))
	if beyond := len(lat) - percentileRank(len(lat), 99); beyond < 10 {
		rep.set("req_p99_samples_beyond", "count", float64(beyond), len(lat))
	}
}

// statusOK judges a reply by its status alone.
func statusOK(resp response) error {
	if resp.status/100 != 2 {
		return fmt.Errorf("status %d: %.200s", resp.status, resp.body)
	}
	return nil
}

// shutdown stops d (if any) and deletes its cache directory (if any),
// returning the first error.
func shutdown(d *daemon, dir string) error {
	var err error
	if d != nil {
		err = d.stop()
	}
	if dir != "" {
		if derr := dropCache(dir); err == nil {
			err = derr
		}
	}
	return err
}

// figureAccuracy reads fig1's and fig5's headline gaps from their JSON
// bodies and reports the error against the paper's.
func figureAccuracy(rep *report, fig1, fig5 []byte) error {
	var f1, f5 struct{ GeoGap, AvgGap float64 }
	if err := json.Unmarshal(fig1, &f1); err != nil {
		return fmt.Errorf("fig1: %w", err)
	}
	if err := json.Unmarshal(fig5, &f5); err != nil {
		return fmt.Errorf("fig5: %w", err)
	}
	rep.set("gap_err", "ratio", math.Abs(f1.GeoGap-paperGap)/paperGap, 1)
	rep.set("final_gap_err", "ratio", math.Abs(f5.AvgGap-paperFinalGap)/paperFinalGap, 1)
	return nil
}

// getBody fetches path and fails on a non-2xx reply.
func getBody(c *client, path string) ([]byte, error) {
	resp, err := c.do(request{method: "GET", path: path}, "")
	if err == nil {
		err = statusOK(resp)
	}
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	return resp.body, nil
}
