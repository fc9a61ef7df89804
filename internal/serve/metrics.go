package serve

// Hand-rolled observability for the measurement daemon: counters and
// latency histograms over atomics, exported as one JSON document on
// /metrics. No dependencies — the expvar-style payload is assembled by
// hand so the schema stays explicit and diffable.

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"

	"ninjagap/internal/gap"
)

// latencyBucketsMs are the upper bounds (milliseconds) of the per-endpoint
// latency histogram; a final implicit bucket catches everything slower.
var latencyBucketsMs = [...]float64{1, 5, 25, 100, 500, 2000, 10000, 60000}

// endpointMetrics instruments one route.
type endpointMetrics struct {
	count   atomic.Int64 // requests finished
	errors  atomic.Int64 // responses with status >= 400
	sumUs   atomic.Int64 // total latency in microseconds
	buckets [len(latencyBucketsMs) + 1]atomic.Int64
}

// observe records one finished request.
func (e *endpointMetrics) observe(d time.Duration, status int) {
	e.count.Add(1)
	if status >= 400 {
		e.errors.Add(1)
	}
	e.sumUs.Add(d.Microseconds())
	ms := float64(d.Milliseconds())
	for i, ub := range latencyBucketsMs {
		if ms <= ub {
			e.buckets[i].Add(1)
			return
		}
	}
	e.buckets[len(latencyBucketsMs)].Add(1)
}

// metrics is the daemon-wide instrument set.
type metrics struct {
	start     time.Time
	inFlight  atomic.Int64 // requests currently executing (admitted work)
	completed atomic.Int64 // requests finished, any status
	rejected  atomic.Int64 // 503s from a full admission queue
	timeouts  atomic.Int64 // 504s from request deadlines
	endpoints map[string]*endpointMetrics

	// Submission outcome counters (POST /v1/submit). Every finished
	// submission increments exactly one of accepted / rejected / compile
	// errors; memo hits are a subset of accepted.
	submitAccepted      atomic.Int64 // responses served (fresh or memoized)
	submitRejected      atomic.Int64 // limit/parse/request rejections (413, 400, 422)
	submitMemoHits      atomic.Int64 // responses served from the submit memo
	submitCompileErrors atomic.Int64 // 422s from the compiler proper

	// replies is the server's reply memo, reported under "replies".
	replies *replyMemo
}

func newMetrics(routes []string) *metrics {
	m := &metrics{start: time.Now(), endpoints: map[string]*endpointMetrics{}}
	for _, r := range routes {
		m.endpoints[r] = &endpointMetrics{}
	}
	return m
}

// snapshot assembles the /metrics JSON document. Memo statistics come from
// the process-wide measurement cache the scheduler serves from.
func (m *metrics) snapshot() ([]byte, error) {
	hits, misses := gap.MemoStats()
	type histogram struct {
		SumMs   float64          `json:"sum_ms"`
		Buckets map[string]int64 `json:"buckets"`
	}
	type endpoint struct {
		Count   int64     `json:"count"`
		Errors  int64     `json:"errors"`
		Latency histogram `json:"latency_ms"`
	}
	doc := struct {
		UptimeSeconds float64 `json:"uptime_seconds"`
		Memo          struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
			Size   int   `json:"size"`
			// Disk is the persistent -cache-dir layer (all zero when
			// detached): cells served from / written to disk.
			DiskAttached bool  `json:"disk_attached"`
			DiskHits     int64 `json:"disk_hits"`
			DiskStores   int64 `json:"disk_stores"`
		} `json:"memo"`
		// Replies is the reply memo of figure, table and snapshot
		// replies, consulted ahead of admission.
		Replies struct {
			Hits    int64 `json:"hits"`
			Misses  int64 `json:"misses"`
			Entries int   `json:"entries"`
		} `json:"replies"`
		Requests struct {
			InFlight  int64 `json:"in_flight"`
			Completed int64 `json:"completed"`
			Rejected  int64 `json:"rejected_queue_full"`
			Timeouts  int64 `json:"timeouts"`
		} `json:"requests"`
		Submit struct {
			Accepted      int64 `json:"accepted"`
			Rejected      int64 `json:"rejected_by_limit"`
			MemoHits      int64 `json:"memo_hits"`
			CompileErrors int64 `json:"compile_errors"`
		} `json:"submit"`
		Endpoints map[string]endpoint `json:"endpoints"`
	}{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Endpoints:     map[string]endpoint{},
	}
	doc.Memo.Hits, doc.Memo.Misses, doc.Memo.Size = hits, misses, gap.MemoLen()
	doc.Memo.DiskHits, doc.Memo.DiskStores, doc.Memo.DiskAttached = gap.CacheDirStats()
	doc.Replies.Hits, doc.Replies.Misses, doc.Replies.Entries = m.replies.stats()
	doc.Requests.InFlight = m.inFlight.Load()
	doc.Requests.Completed = m.completed.Load()
	doc.Requests.Rejected = m.rejected.Load()
	doc.Requests.Timeouts = m.timeouts.Load()
	doc.Submit.Accepted = m.submitAccepted.Load()
	doc.Submit.Rejected = m.submitRejected.Load()
	doc.Submit.MemoHits = m.submitMemoHits.Load()
	doc.Submit.CompileErrors = m.submitCompileErrors.Load()
	for route, em := range m.endpoints {
		ep := endpoint{
			Count:  em.count.Load(),
			Errors: em.errors.Load(),
			Latency: histogram{
				SumMs:   float64(em.sumUs.Load()) / 1000,
				Buckets: map[string]int64{},
			},
		}
		for i, ub := range latencyBucketsMs {
			ep.Latency.Buckets[bucketLabel(ub)] = em.buckets[i].Load()
		}
		ep.Latency.Buckets["inf"] = em.buckets[len(latencyBucketsMs)].Load()
		doc.Endpoints[route] = ep
	}
	return json.MarshalIndent(doc, "", "  ")
}

func bucketLabel(ub float64) string {
	b, _ := json.Marshal(ub)
	return "le_" + string(b)
}

// statusRecorder captures the response status for instrumentation.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}
