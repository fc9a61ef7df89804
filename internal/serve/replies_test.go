package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ninjagap/internal/gap"
	"ninjagap/internal/kernels"
)

// countingServer builds a server whose dispatch counts its calls and
// fails with fail or, when fail is nil, answers at once with a body
// naming its inputs.
func countingServer(cfg Config, fail error) (*Server, *atomic.Int64) {
	s := New(cfg)
	calls := new(atomic.Int64)
	s.dispatch = func(_ context.Context, id string, c gap.Config) (gap.Output, error) {
		calls.Add(1)
		if fail != nil {
			return gap.Output{}, fail
		}
		text := fmt.Sprintf("%s scale=%g benches=%v\n", id, c.Scale, c.Benches)
		return gap.Output{Text: func() string { return text }, Data: text}, nil
	}
	return s, calls
}

// TestReplyMemoServesRepeats checks that an identical GET is answered
// from the reply memo, same bytes and Content-Type, without dispatching,
// and that each key input (id, format, scale, bench) is a new key.
func TestReplyMemoServesRepeats(t *testing.T) {
	s, calls := countingServer(smallCfg(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{
		"/v1/figure/fig1",
		"/v1/figure/fig2",
		"/v1/figure/fig1?format=text",
		"/v1/figure/fig1?scale=0.5",
		"/v1/figure/fig1?bench=stencil",
		"/v1/table/table1",
		"/v1/snapshot",
	} {
		before := calls.Load()
		code1, body1, hdr1 := get(t, ts.URL+path)
		if code1 != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, code1, body1)
		}
		if n := calls.Load() - before; n != 1 {
			t.Errorf("first GET %s dispatched %d times, want 1", path, n)
		}
		code2, body2, hdr2 := get(t, ts.URL+path)
		if code2 != http.StatusOK || !bytes.Equal(body1, body2) {
			t.Errorf("repeat GET %s = %d %q, want 200 %q", path, code2, body2, body1)
		}
		if ct1, ct2 := hdr1.Get("Content-Type"), hdr2.Get("Content-Type"); ct1 != ct2 {
			t.Errorf("GET %s Content-Type %q, then %q", path, ct1, ct2)
		}
		if n := calls.Load() - before; n != 1 {
			t.Errorf("GET %s twice dispatched %d times, want 1", path, n)
		}
	}
}

// TestReplyMemoSkipsFailures checks that a dispatch error, a deadline
// (504) and a failed render (400) are never stored: the next identical
// request dispatches again.
func TestReplyMemoSkipsFailures(t *testing.T) {
	cases := []struct {
		path string
		err  error
		code int
	}{
		{"/v1/figure/fig1", errors.New("driver failed"), http.StatusInternalServerError},
		{"/v1/figure/fig2", fmt.Errorf("dispatch: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{"/v1/figure/fig3?format=csv", nil, http.StatusBadRequest}, // figures have no CSV form
	}
	for _, tc := range cases {
		s, calls := countingServer(smallCfg(), tc.err)
		ts := httptest.NewServer(s.Handler())
		for i := 1; i <= 2; i++ {
			if code, body, _ := get(t, ts.URL+tc.path); code != tc.code {
				t.Errorf("GET %s #%d = %d (%s), want %d", tc.path, i, code, body, tc.code)
			}
			if n := calls.Load(); n != int64(i) {
				t.Errorf("GET %s #%d: %d dispatches, want %d", tc.path, i, n, i)
			}
		}
		if _, _, entries := s.replies.stats(); entries != 0 {
			t.Errorf("GET %s left %d reply memo entries", tc.path, entries)
		}
		ts.Close()
	}
}

// TestCachedReplyBypassesAdmission holds the only execution slot and the
// only queue place with blocked requests for another figure: a figure or
// measure reply memoized earlier is still answered with 200, while an
// uncached request is refused with 503.
func TestCachedReplyBypassesAdmission(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxInFlight = 1
	cfg.MaxQueue = 1
	s := New(cfg)
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	var relOnce sync.Once
	releaseAll := func() { relOnce.Do(func() { close(release) }) }
	defer releaseAll()
	s.dispatch = func(ctx context.Context, id string, _ gap.Config) (gap.Output, error) {
		if id == "fig2" {
			entered <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return gap.Output{}, context.Cause(ctx)
			}
		}
		return gap.Output{Text: func() string { return id + "\n" }, Data: id}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, cached, _ := get(t, ts.URL+"/v1/figure/fig1")
	if code != http.StatusOK {
		t.Fatalf("fig1 = %d: %s", code, cached)
	}
	const measure = "/v1/measure?bench=blackscholes&version=naive"
	code, measured, _ := get(t, ts.URL+measure)
	if code != http.StatusOK {
		t.Fatalf("measure = %d: %s", code, measured)
	}
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "/v1/figure/fig2")
			if err != nil {
				t.Error(err)
				results <- 0
				return
			}
			resp.Body.Close()
			results <- resp.StatusCode
		}()
	}
	<-entered
	deadline := time.Now().Add(5 * time.Second)
	for s.waiting.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second fig2 request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	if code, body, _ := get(t, ts.URL+"/v1/figure/fig1"); code != http.StatusOK || !bytes.Equal(body, cached) {
		t.Errorf("cached fig1 with the slot and queue full = %d %q, want 200 %q", code, body, cached)
	}
	if code, body, _ := get(t, ts.URL+"/v1/figure/fig1?format=text"); code != http.StatusServiceUnavailable {
		t.Errorf("uncached fig1 text with the slot and queue full = %d (%s), want 503", code, body)
	}
	if code, body, _ := get(t, ts.URL+measure); code != http.StatusOK || !bytes.Equal(body, measured) {
		t.Errorf("cached measure with the slot and queue full = %d %q, want 200 %q", code, body, measured)
	}
	if code, body, _ := get(t, ts.URL+measure+"&machine=NehalemI7"); code != http.StatusServiceUnavailable {
		t.Errorf("uncached measure with the slot and queue full = %d (%s), want 503", code, body)
	}

	releaseAll()
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("blocked fig2 = %d, want 200", code)
		}
	}
}

// TestMeasureMemoServesRepeats checks that a repeated /v1/measure is
// answered from the reply memo with the bytes and Content-Type of the
// reply a cold process computes, and reaches no cell memo on the way.
func TestMeasureMemoServesRepeats(t *testing.T) {
	for _, path := range []string{
		"/v1/measure?bench=blackscholes&version=naive",
		"/v1/measure?bench=stencil&version=autovec&machine=NehalemI7&format=text",
	} {
		gap.ResetMemo()
		s := New(smallCfg())
		ts := httptest.NewServer(s.Handler())
		code1, cold, hdr1 := get(t, ts.URL+path)
		if code1 != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, code1, cold)
		}
		hits0, misses0 := gap.MemoStats()
		replyHits0, _, _ := s.replies.stats()
		code2, warm, hdr2 := get(t, ts.URL+path)
		if code2 != http.StatusOK || !bytes.Equal(cold, warm) {
			t.Errorf("repeat GET %s = %d %q, want 200 %q", path, code2, warm, cold)
		}
		if ct1, ct2 := hdr1.Get("Content-Type"), hdr2.Get("Content-Type"); ct1 != ct2 {
			t.Errorf("GET %s Content-Type %q, then %q", path, ct1, ct2)
		}
		hits1, misses1 := gap.MemoStats()
		replyHits1, _, _ := s.replies.stats()
		if replyHits1 != replyHits0+1 {
			t.Errorf("repeat GET %s: reply hits %d -> %d, want one more", path, replyHits0, replyHits1)
		}
		if hits1 != hits0 || misses1 != misses0 {
			t.Errorf("repeat GET %s reached the cell memo: hits %d -> %d, misses %d -> %d",
				path, hits0, hits1, misses0, misses1)
		}
		ts.Close()
	}
}

// TestMeasureMemoSkipsFailures checks that no failed measure is stored:
// 400s from validation (threads above the machine's hardware threads, a
// bad n, an unknown machine, a non-finite scale) or from rendering
// (measures have no CSV form), and 504s.
func TestMeasureMemoSkipsFailures(t *testing.T) {
	const base = "/v1/measure?bench=blackscholes&version=naive"
	s := New(smallCfg())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, q := range []string{"&threads=13", "&n=abc", "&n=0", "&machine=nope", "&scale=NaN", "&format=csv"} {
		for i := 1; i <= 2; i++ {
			if code, body, _ := get(t, ts.URL+base+q); code != http.StatusBadRequest {
				t.Errorf("GET %s #%d = %d (%s), want 400", base+q, i, code, body)
			}
		}
	}
	if _, _, entries := s.replies.stats(); entries != 0 {
		t.Errorf("400s left %d reply memo entries", entries)
	}

	cfg := smallCfg()
	cfg.RequestTimeout = time.Nanosecond
	s = New(cfg)
	ts2 := httptest.NewServer(s.Handler())
	defer ts2.Close()
	for i := 1; i <= 2; i++ {
		if code, body, _ := get(t, ts2.URL+base); code != http.StatusGatewayTimeout {
			t.Errorf("GET %s #%d under a 1ns deadline = %d (%s), want 504", base, i, code, body)
		}
	}
	if _, _, entries := s.replies.stats(); entries != 0 {
		t.Errorf("504s left %d reply memo entries", entries)
	}
}

// TestMeasureMemoKeys checks what the measure key tells apart: another
// machine, n, thread count, format or version is a new entry, while an
// explicit n equal to the scale's n, or a scale that gives the same n,
// is answered from the existing entry with its bytes.
func TestMeasureMemoKeys(t *testing.T) {
	b, err := kernels.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	n := gap.SizeFor(b, gap.Config{Scale: smallCfg().Scale})
	const base = "/v1/measure?bench=blackscholes&version=algo"
	s := New(smallCfg())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, first, _ := get(t, ts.URL+base)
	for _, step := range []struct {
		path    string
		entries int
		shared  bool // answered with the first reply's bytes
	}{
		{base, 1, true},
		{base + "&n=" + strconv.Itoa(n), 1, true},
		{base + "&scale=" + strconv.FormatFloat(smallCfg().Scale/2, 'g', -1, 64), 1, true},
		{base + "&machine=NehalemI7", 2, false},
		{base + "&n=" + strconv.Itoa(n+64), 3, false},
		{base + "&threads=2", 4, false},
		{base + "&format=text", 5, false},
		{"/v1/measure?bench=blackscholes&version=naive", 6, false},
	} {
		code, body, _ := get(t, ts.URL+step.path)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", step.path, code, body)
		}
		if _, _, entries := s.replies.stats(); entries != step.entries {
			t.Errorf("after GET %s: %d reply memo entries, want %d", step.path, entries, step.entries)
		}
		if step.shared != bytes.Equal(body, first) {
			t.Errorf("GET %s: body shared with %s = %v, want %v", step.path, base, !step.shared, step.shared)
		}
	}
}

// TestReplyMemoBounded checks that more distinct keys than the bound
// leave at most the bound in the memo.
func TestReplyMemoBounded(t *testing.T) {
	s, calls := countingServer(smallCfg(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const keys = maxReplyEntries + 16
	for i := 1; i <= keys; i++ {
		if code, body, _ := get(t, ts.URL+"/v1/figure/fig1?scale="+strconv.Itoa(i)); code != http.StatusOK {
			t.Fatalf("scale %d = %d: %s", i, code, body)
		}
	}
	if n := calls.Load(); n != keys {
		t.Errorf("%d distinct keys dispatched %d times", keys, n)
	}
	if _, _, entries := s.replies.stats(); entries > maxReplyEntries {
		t.Errorf("reply memo holds %d entries, bound %d", entries, maxReplyEntries)
	}
}
