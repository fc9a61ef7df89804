package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ninjagap/internal/gap"
)

// smallCfg keeps handler tests fast: two quick benchmarks at test scale.
func smallCfg() Config {
	return Config{Scale: 0.001, Benches: []string{"blackscholes", "stencil"}, Jobs: 2}
}

func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(New(smallCfg()).Handler())
	defer ts.Close()
	code, body, _ := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("healthz = %d %q, want 200 ok", code, body)
	}
}

// TestFigureMatchesCLIBytes is the byte-identity contract: the HTTP JSON
// body must equal what gap.Dispatch + Emit (the CLI's `-json` path)
// produces for the same configuration.
func TestFigureMatchesCLIBytes(t *testing.T) {
	cfg := smallCfg()
	ts := httptest.NewServer(New(cfg).Handler())
	defer ts.Close()

	for _, id := range []string{"fig1", "fig5"} {
		code, body, hdr := get(t, ts.URL+"/v1/figure/"+id)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", id, code, body)
		}
		if ct := hdr.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", id, ct)
		}
		out, err := gap.Dispatch(id, gap.Config{Scale: cfg.Scale, Benches: cfg.Benches, Jobs: cfg.Jobs})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := out.Emit(&want, "json"); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Errorf("%s: HTTP body differs from CLI JSON (%d vs %d bytes)", id, len(body), want.Len())
		}
	}
}

// TestSnapshotMatchesBenchExport checks /v1/snapshot against the
// bench-export driver byte for byte (the CI job curls the real daemon
// against the real CLI the same way).
func TestSnapshotMatchesBenchExport(t *testing.T) {
	cfg := smallCfg()
	ts := httptest.NewServer(New(cfg).Handler())
	defer ts.Close()
	code, body, _ := get(t, ts.URL+"/v1/snapshot")
	if code != http.StatusOK {
		t.Fatalf("snapshot status %d: %s", code, body)
	}
	out, err := gap.Dispatch("bench-export", gap.Config{Scale: cfg.Scale, Benches: cfg.Benches, Jobs: cfg.Jobs})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := out.Emit(&want, "json"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Error("snapshot body differs from bench-export JSON")
	}
}

func TestMeasureEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(smallCfg()).Handler())
	defer ts.Close()
	code, body, _ := get(t, ts.URL+"/v1/measure?bench=blackscholes&version=naive")
	if code != http.StatusOK {
		t.Fatalf("measure status %d: %s", code, body)
	}
	var rec struct {
		Bench   string  `json:"bench"`
		Version string  `json:"version"`
		Machine string  `json:"machine"`
		Seconds float64 `json:"seconds"`
		Threads int     `json:"threads"`
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatalf("measure body not JSON: %v", err)
	}
	if rec.Bench != "blackscholes" || rec.Version != "naive" || rec.Machine != "WestmereX980" {
		t.Errorf("measure returned %+v", rec)
	}
	if rec.Seconds <= 0 || rec.Threads != 1 {
		t.Errorf("measure seconds=%g threads=%d, want positive seconds, 1 thread", rec.Seconds, rec.Threads)
	}
}

func TestBadRequests(t *testing.T) {
	ts := httptest.NewServer(New(smallCfg()).Handler())
	defer ts.Close()
	cases := []struct {
		path string
		want int
		msg  string // a substring the reply must contain, if set
	}{
		{"/v1/figure/fig99", http.StatusNotFound, ""},
		{"/v1/table/fig1", http.StatusNotFound, ""},
		{"/v1/figure/fig1?scale=-2", http.StatusBadRequest, ""},
		{"/v1/figure/fig1?bench=nope", http.StatusBadRequest, ""},
		{"/v1/figure/fig1?format=csv", http.StatusBadRequest, ""}, // figures have no CSV form
		{"/v1/measure?bench=nope&version=naive", http.StatusBadRequest, ""},
		{"/v1/measure?bench=blackscholes&version=nope", http.StatusBadRequest, ""},
		{"/v1/measure?bench=blackscholes&version=naive&machine=nope", http.StatusBadRequest, ""},
		// WestmereX980 has 12 hardware threads: the limit itself measures,
		// anything above it is refused before the engine allocates one
		// thread context per requested thread.
		{"/v1/measure?bench=blackscholes&version=algo&n=64&machine=WestmereX980&threads=12", http.StatusOK, ""},
		{"/v1/measure?bench=blackscholes&version=algo&n=64&machine=WestmereX980&threads=13", http.StatusBadRequest, ""},
		{"/v1/measure?bench=blackscholes&version=algo&n=64&machine=WestmereX980&threads=5000", http.StatusBadRequest, "12 hardware threads"},
		// A scale must be finite: NaN and +Inf used to measure the test
		// size, a number nobody asked for.
		{"/v1/figure/fig1?scale=NaN", http.StatusBadRequest, "bad scale"},
		{"/v1/figure/fig1?scale=Inf", http.StatusBadRequest, "bad scale"},
		{"/v1/measure?bench=blackscholes&version=naive&scale=NaN", http.StatusBadRequest, "bad scale"},
		{"/v1/measure?bench=blackscholes&version=naive&scale=nan", http.StatusBadRequest, "bad scale"},
		{"/v1/measure?bench=blackscholes&version=naive&scale=Inf", http.StatusBadRequest, "bad scale"},
	}
	for _, tc := range cases {
		code, body, _ := get(t, ts.URL+tc.path)
		if code != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, code, tc.want)
		}
		if !strings.Contains(string(body), tc.msg) {
			t.Errorf("GET %s: body %q does not contain %q", tc.path, body, tc.msg)
		}
	}
}

// blockedServer builds a server whose dispatch blocks until release is
// closed, for admission and shutdown tests.
func blockedServer(cfg Config) (s *Server, entered chan struct{}, release chan struct{}) {
	s = New(cfg)
	entered = make(chan struct{}, 64)
	release = make(chan struct{})
	s.dispatch = func(ctx context.Context, id string, _ gap.Config) (gap.Output, error) {
		entered <- struct{}{}
		select {
		case <-release:
			return gap.Output{Text: func() string { return "done\n" }, Data: "done"}, nil
		case <-ctx.Done():
			return gap.Output{}, fmt.Errorf("dispatch: %w", context.Cause(ctx))
		}
	}
	return s, entered, release
}

// TestQueueFull503 checks the admission bound: with one execution slot
// and a one-deep queue, a third concurrent request is rejected with 503
// instead of spawning more work.
func TestQueueFull503(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxInFlight = 1
	cfg.MaxQueue = 1
	s, entered, release := blockedServer(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var relOnce sync.Once
	releaseAll := func() { relOnce.Do(func() { close(release) }) }
	defer releaseAll()

	type result struct {
		code int
		body string
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			code, body, _ := get(t, ts.URL+"/v1/figure/fig1")
			results <- result{code, string(body)}
		}()
	}
	// Wait until the first request holds the slot and the second sits in
	// the queue.
	<-entered
	deadline := time.Now().Add(5 * time.Second)
	for s.waiting.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	code, body, hdr := get(t, ts.URL+"/v1/figure/fig1")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("third concurrent request = %d (%s), want 503", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After header")
	}

	releaseAll()
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Errorf("admitted request = %d (%s), want 200", r.code, r.body)
		}
	}
	if got := s.met.rejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
}

// TestDeadline504 checks that a request exceeding the per-request timeout
// is answered with 504 Gateway Timeout.
func TestDeadline504(t *testing.T) {
	cfg := smallCfg()
	cfg.RequestTimeout = 20 * time.Millisecond
	s, entered, release := blockedServer(cfg)
	defer close(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{})
	var code int
	var body []byte
	go func() {
		code, body, _ = get(t, ts.URL+"/v1/figure/fig1")
		close(done)
	}()
	<-entered
	<-done
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request = %d (%s), want 504", code, body)
	}
	if got := s.met.timeouts.Load(); got != 1 {
		t.Errorf("timeout counter = %d, want 1", got)
	}
}

// TestDeadline504RealRun drives the real dispatch path with an immediate
// deadline — the wrapped context.DeadlineExceeded from Scheduler.Run must
// map to 504, and the abandoned run must not poison the memo cache for a
// later request with a sane deadline.
func TestDeadline504RealRun(t *testing.T) {
	cfg := smallCfg()
	cfg.RequestTimeout = time.Nanosecond
	ts := httptest.NewServer(New(cfg).Handler())
	code, body, _ := get(t, ts.URL+"/v1/figure/fig1")
	ts.Close()
	if code != http.StatusGatewayTimeout {
		t.Fatalf("immediate-deadline figure = %d (%s), want 504", code, body)
	}

	ts2 := httptest.NewServer(New(smallCfg()).Handler())
	defer ts2.Close()
	code, body, _ = get(t, ts2.URL+"/v1/figure/fig1")
	if code != http.StatusOK {
		t.Fatalf("figure after abandoned run = %d (%s), want 200 (memo poisoned?)", code, body)
	}
}

// TestShutdownDrains checks graceful shutdown: Shutdown must wait for the
// in-flight request to finish (and the request must succeed), not cut it
// off.
func TestShutdownDrains(t *testing.T) {
	cfg := smallCfg()
	s, entered, release := blockedServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)

	url := "http://" + ln.Addr().String()
	done := make(chan struct{})
	var code int
	var body []byte
	go func() {
		code, body, _ = get(t, url+"/v1/figure/fig1")
		close(done)
	}()
	<-entered

	shut := make(chan error, 1)
	go func() { shut <- hs.Shutdown(context.Background()) }()

	// Shutdown must block while the measurement is in flight.
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v before the in-flight request drained", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	select {
	case err := <-shut:
		if err != nil {
			t.Fatalf("Shutdown = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the request drained")
	}
	<-done
	if code != http.StatusOK || !strings.Contains(string(body), "done") {
		t.Errorf("drained request = %d %q, want 200 done", code, body)
	}
}

// TestMetricsMemoTraffic checks that /metrics shows which cache answered:
// a repeated identical figure request is a reply-memo hit that computes
// no cell; a /v1/measure of a cell fig1 measured is a cell-memo hit, and
// its repeat a reply-memo hit that reaches no cell memo; and the
// endpoint histogram fills.
func TestMetricsMemoTraffic(t *testing.T) {
	ts := httptest.NewServer(New(smallCfg()).Handler())
	defer ts.Close()

	type doc struct {
		Memo struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
			Size   int   `json:"size"`
		} `json:"memo"`
		Replies struct {
			Hits    int64 `json:"hits"`
			Misses  int64 `json:"misses"`
			Entries int   `json:"entries"`
		} `json:"replies"`
		Requests struct {
			Completed int64 `json:"completed"`
		} `json:"requests"`
		Endpoints map[string]struct {
			Count  int64 `json:"count"`
			Errors int64 `json:"errors"`
		} `json:"endpoints"`
	}
	metrics := func() doc {
		code, body, _ := get(t, ts.URL+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("metrics status %d", code)
		}
		var d doc
		if err := json.Unmarshal(body, &d); err != nil {
			t.Fatalf("metrics not JSON: %v\n%s", err, body)
		}
		return d
	}

	if code, body, _ := get(t, ts.URL+"/v1/figure/fig1"); code != http.StatusOK {
		t.Fatalf("fig1 = %d: %s", code, body)
	}
	before := metrics()
	if before.Memo.Size == 0 || before.Memo.Misses == 0 {
		t.Errorf("after first figure: memo size=%d misses=%d, want > 0", before.Memo.Size, before.Memo.Misses)
	}
	if before.Replies.Misses != 1 || before.Replies.Entries != 1 {
		t.Errorf("after first figure: replies misses=%d entries=%d, want 1 and 1",
			before.Replies.Misses, before.Replies.Entries)
	}
	if code, _, _ := get(t, ts.URL+"/v1/figure/fig1"); code != http.StatusOK {
		t.Fatal("second fig1 failed")
	}
	after := metrics()
	if after.Replies.Hits <= before.Replies.Hits {
		t.Errorf("reply hits did not grow across identical requests: %d -> %d",
			before.Replies.Hits, after.Replies.Hits)
	}
	if after.Memo.Misses != before.Memo.Misses {
		t.Errorf("identical request recomputed cells: misses %d -> %d",
			before.Memo.Misses, after.Memo.Misses)
	}
	if after.Requests.Completed <= before.Requests.Completed {
		t.Error("completed counter did not grow")
	}
	fig := after.Endpoints["/v1/figure"]
	if fig.Count < 2 {
		t.Errorf("figure endpoint count = %d, want >= 2", fig.Count)
	}

	const measure = "/v1/measure?bench=blackscholes&version=naive"
	if code, body, _ := get(t, ts.URL+measure); code != http.StatusOK {
		t.Fatalf("measure = %d: %s", code, body)
	}
	first := metrics()
	if first.Memo.Hits <= after.Memo.Hits || first.Memo.Misses != after.Memo.Misses {
		t.Errorf("measure of a fig1 cell: memo hits %d -> %d, misses %d -> %d; want a hit and no miss",
			after.Memo.Hits, first.Memo.Hits, after.Memo.Misses, first.Memo.Misses)
	}
	if code, _, _ := get(t, ts.URL+measure); code != http.StatusOK {
		t.Fatal("second measure failed")
	}
	second := metrics()
	if second.Replies.Hits <= first.Replies.Hits {
		t.Errorf("reply hits did not grow across identical measure requests: %d -> %d",
			first.Replies.Hits, second.Replies.Hits)
	}
	if second.Memo.Hits != first.Memo.Hits || second.Memo.Misses != first.Memo.Misses {
		t.Errorf("repeated measure reached the cell memo: hits %d -> %d, misses %d -> %d",
			first.Memo.Hits, second.Memo.Hits, first.Memo.Misses, second.Memo.Misses)
	}
}

// TestTextAndCSVFormats checks the alternate encodings.
func TestTextAndCSVFormats(t *testing.T) {
	ts := httptest.NewServer(New(smallCfg()).Handler())
	defer ts.Close()
	code, body, _ := get(t, ts.URL+"/v1/table/table2?format=csv")
	if code != http.StatusOK || !strings.Contains(string(body), "machine,year") {
		t.Errorf("table2 csv = %d %q", code, body)
	}
	code, body, _ = get(t, ts.URL+"/v1/figure/fig1?format=text")
	if code != http.StatusOK || !strings.Contains(string(body), "average gap") {
		t.Errorf("fig1 text = %d (len %d)", code, len(body))
	}
}
