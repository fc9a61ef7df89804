package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ninjagap/internal/gap"
	"ninjagap/internal/submit"
)

const submitSrc = `// tiny saxpy for handler tests
kernel scale(f32 restrict x[256], f32 restrict y[256]) {
    #pragma simd
    for (i = 0; i < 256; i++) {
        y[i] = 2 * x[i] + y[i];
    }
}`

func postSubmit(t *testing.T, url, contentType, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url+"/v1/submit", contentType, strings.NewReader(body))
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

func submitTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	t.Cleanup(gap.ResetMemo)
	gap.ResetMemo()
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// submitReqBody wraps source in the JSON request form, restricted to one
// machine so handler tests stay fast.
func submitReqBody(t *testing.T, src string, machines ...string) string {
	t.Helper()
	b, err := json.Marshal(submit.Request{Source: src, Machines: machines})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSubmitResubmissionByteIdentical(t *testing.T) {
	ts := submitTestServer(t, Config{Jobs: 2})
	body := submitReqBody(t, submitSrc, "WestmereX980")
	code1, b1, h1 := postSubmit(t, ts.URL, "application/json", body)
	if code1 != http.StatusOK {
		t.Fatalf("first submit: %d %s", code1, b1)
	}
	if h1.Get("X-Ninjagap-Submit-Memo") != "miss" || h1.Get("X-Ninjagap-Computed-Cells") == "0" {
		t.Errorf("first submit headers: memo=%q computed=%q, want miss with computed cells",
			h1.Get("X-Ninjagap-Submit-Memo"), h1.Get("X-Ninjagap-Computed-Cells"))
	}
	// Whitespace/comment-only variant: must hit the memo, compute zero
	// cells, and return the exact same bytes.
	variant := submitReqBody(t, "/* resubmitted */\n"+strings.ReplaceAll(submitSrc, "2 * x[i]", "2*x[i]"),
		"WestmereX980")
	code2, b2, h2 := postSubmit(t, ts.URL, "application/json", variant)
	if code2 != http.StatusOK {
		t.Fatalf("resubmit: %d %s", code2, b2)
	}
	if h2.Get("X-Ninjagap-Submit-Memo") != "hit" || h2.Get("X-Ninjagap-Computed-Cells") != "0" {
		t.Errorf("resubmit headers: memo=%q computed=%q, want hit/0",
			h2.Get("X-Ninjagap-Submit-Memo"), h2.Get("X-Ninjagap-Computed-Cells"))
	}
	if !bytes.Equal(b1, b2) {
		t.Error("resubmission body not byte-identical")
	}
	var resp submit.Response
	if err := json.Unmarshal(b1, &resp); err != nil {
		t.Fatalf("response not valid JSON: %v", err)
	}
	if resp.Schema != submit.Schema || resp.Kernel != "scale" || len(resp.Cells) == 0 {
		t.Errorf("response schema=%q kernel=%q cells=%d", resp.Schema, resp.Kernel, len(resp.Cells))
	}
}

// A raw (non-JSON) body is accepted as bare kernel source.
func TestSubmitRawSourceBody(t *testing.T) {
	ts := submitTestServer(t, Config{Jobs: 2})
	code, body, _ := postSubmit(t, ts.URL, "text/plain", submitSrc)
	if code != http.StatusOK {
		t.Fatalf("raw submit: %d %s", code, body)
	}
	var resp submit.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	// Raw body means defaults: the full machine registry.
	if len(resp.Cells) < 3 {
		t.Errorf("raw submit measured %d cells, want the full registry ladder", len(resp.Cells))
	}
}

func TestSubmitErrors(t *testing.T) {
	ts := submitTestServer(t, Config{Jobs: 2, Submit: submit.Limits{MaxSourceBytes: 512}})

	// Oversized body → 413, rejected by MaxBytesReader before parsing.
	code, body, _ := postSubmit(t, ts.URL, "text/plain", strings.Repeat("x", 4096))
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized: %d %s, want 413", code, body)
	}

	// Malformed source → 422 with a structured parse_error.
	code, body, _ = postSubmit(t, ts.URL, "text/plain", "kernel broken(")
	if code != http.StatusUnprocessableEntity {
		t.Errorf("malformed: %d %s, want 422", code, body)
	}
	var se submit.Error
	if err := json.Unmarshal(body, &se); err != nil || se.Code != submit.CodeParse {
		t.Errorf("malformed body %s (err %v), want parse_error", body, err)
	}

	// Unknown machine → 400 bad_request.
	code, body, _ = postSubmit(t, ts.URL, "application/json",
		submitReqBody(t, submitSrc, "PDP11"))
	if code != http.StatusBadRequest {
		t.Errorf("unknown machine: %d %s, want 400", code, body)
	}
	if err := json.Unmarshal(body, &se); err != nil || se.Code != submit.CodeBadRequest {
		t.Errorf("unknown machine body %s (err %v), want bad_request", body, err)
	}

	// Unparseable JSON request object → 400.
	code, body, _ = postSubmit(t, ts.URL, "application/json", `{"source": 42}`)
	if code != http.StatusBadRequest {
		t.Errorf("bad JSON: %d %s, want 400", code, body)
	}
}

func TestSubmitMetricsCounters(t *testing.T) {
	ts := submitTestServer(t, Config{Jobs: 2})
	if code, b, _ := postSubmit(t, ts.URL, "text/plain",
		submitReqBody(t, submitSrc, "WestmereX980")); code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, b)
	}
	postSubmit(t, ts.URL, "text/plain", submitReqBody(t, submitSrc, "WestmereX980")) // memo hit
	postSubmit(t, ts.URL, "text/plain", "kernel broken(")                            // parse reject

	code, body, _ := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	var m struct {
		Submit struct {
			Accepted int64 `json:"accepted"`
			Rejected int64 `json:"rejected_by_limit"`
			MemoHits int64 `json:"memo_hits"`
		} `json:"submit"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Submit.Accepted != 2 || m.Submit.MemoHits != 1 || m.Submit.Rejected != 1 {
		t.Errorf("submit counters = %+v, want accepted 2, memo_hits 1, rejected 1", m.Submit)
	}
}
