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
// only queue place with blocked requests for another figure: a reply
// memoized earlier is still answered with 200, while an uncached request
// is refused with 503.
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

	releaseAll()
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("blocked fig2 = %d, want 200", code)
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
