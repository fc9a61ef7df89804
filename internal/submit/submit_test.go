package submit

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"ninjagap/internal/gap"
	"ninjagap/internal/kernels"
	"ninjagap/internal/lang"
	"ninjagap/internal/machine"
)

const testSrc = `// doubled saxpy, small enough to measure instantly
kernel scale(f32 restrict x[256], f32 restrict y[256]) {
    #pragma simd
    for (i = 0; i < 256; i++) {
        y[i] = 2 * x[i] + y[i];
    }
}`

// testReq keeps tests fast: one machine, the full version ladder.
func testReq(src string) Request {
	return Request{Source: src, Machines: []string{"WestmereX980"}}
}

func resetCaches(t *testing.T) {
	t.Cleanup(func() {
		if err := gap.SetCacheDir(""); err != nil {
			t.Error(err)
		}
		gap.ResetMemo()
	})
	gap.ResetMemo()
}

func TestProcessMemoizesAcrossFormatting(t *testing.T) {
	resetCaches(t)
	s := NewService(Limits{})
	o1, err := s.Process(context.Background(), testReq(testSrc), gap.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if o1.MemoHit || o1.Computed == 0 {
		t.Errorf("cold run: hit=%v computed=%d, want miss with computed cells", o1.MemoHit, o1.Computed)
	}
	// Comment and whitespace edits only: same canonical source, so the
	// memo key matches and zero cells run.
	variant := "/* resubmitted */\n" + strings.ReplaceAll(testSrc, "2 * x[i]", "2*x[i]")
	o2, err := s.Process(context.Background(), testReq(variant), gap.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !o2.MemoHit || o2.Computed != 0 {
		t.Errorf("resubmission: hit=%v computed=%d, want hit with 0 computed", o2.MemoHit, o2.Computed)
	}
	if o1.Key != o2.Key {
		t.Errorf("memo keys differ:\n%s\n%s", o1.Key, o2.Key)
	}
	if !bytes.Equal(o1.Body, o2.Body) {
		t.Error("resubmission body not byte-identical")
	}
	// A different machine list is a different response → different key.
	o3, err := s.Process(context.Background(),
		Request{Source: testSrc, Machines: []string{"Core2Quad"}}, gap.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if o3.Key == o1.Key {
		t.Error("machine list not part of the memo key")
	}
}

func TestProcessWarmVsColdByteIdentical(t *testing.T) {
	resetCaches(t)
	if err := gap.SetCacheDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	cold, err := NewService(Limits{}).Process(context.Background(), testReq(testSrc), gap.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Fresh service + cleared measurement memo: only the disk store
	// survives, as across a daemon restart.
	gap.ResetMemo()
	s := NewService(Limits{})
	warm, err := s.Process(context.Background(), testReq(testSrc), gap.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.MemoHit || warm.Computed != 0 {
		t.Errorf("warm restart: hit=%v computed=%d, want disk hit with 0 computed", warm.MemoHit, warm.Computed)
	}
	if !bytes.Equal(cold.Body, warm.Body) {
		t.Errorf("warm body differs from cold:\ncold %q...\nwarm %q...",
			cold.Body[:min(80, len(cold.Body))], warm.Body[:min(80, len(warm.Body))])
	}
	// A new version list misses the response memo, but its cell was
	// persisted by the cold run under the key a warm run derives.
	diskHits, _, _ := gap.CacheDirStats()
	req := testReq(testSrc)
	req.Versions = []string{"naive"}
	naive, err := s.Process(context.Background(), req, gap.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if naive.MemoHit || naive.Computed != 0 {
		t.Errorf("naive after restart: hit=%v computed=%d, want a memo miss with 0 computed", naive.MemoHit, naive.Computed)
	}
	if h, _, _ := gap.CacheDirStats(); h != diskHits+1 {
		t.Errorf("naive after restart: %d cells from disk, want 1", h-diskHits)
	}
}

func TestProcessRejections(t *testing.T) {
	resetCaches(t)
	s := NewService(Limits{})
	cases := []struct {
		name string
		req  Request
		code Code
	}{
		{"oversized", Request{Source: strings.Repeat("x", DefaultLimits().MaxSourceBytes+1)}, CodeTooLarge},
		{"malformed", Request{Source: "kernel broken("}, CodeParse},
		{"loop depth", Request{Source: `kernel k(f32 x[2]) {
			for (a = 0; a < 2; a++) { for (b = 0; b < 2; b++) { for (c = 0; c < 2; c++) {
			for (d = 0; d < 2; d++) { for (e = 0; e < 2; e++) { x[0] = 1; } } } } } }`}, CodeLimit},
		{"unknown machine", Request{Source: testSrc, Machines: []string{"PDP11"}}, CodeBadRequest},
		{"unknown version", Request{Source: testSrc, Versions: []string{"turbo"}}, CodeBadRequest},
		{"hand-written version", Request{Source: testSrc, Versions: []string{"ninja"}}, CodeBadRequest},
	}
	for _, tc := range cases {
		_, err := s.Process(context.Background(), tc.req, gap.Config{})
		var se *Error
		if !errors.As(err, &se) {
			t.Errorf("%s: error %v is not a *submit.Error", tc.name, err)
			continue
		}
		if se.Code != tc.code {
			t.Errorf("%s: code %s, want %s", tc.name, se.Code, tc.code)
		}
	}
	if n := len(s.memo); n != 0 {
		t.Errorf("rejections left %d memo entries", n)
	}
}

func TestProcessCancelledContextNotMemoized(t *testing.T) {
	resetCaches(t)
	s := NewService(Limits{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Process(ctx, testReq(testSrc), gap.Config{})
	if err == nil {
		t.Fatal("cancelled submission succeeded")
	}
	var se *Error
	if errors.As(err, &se) {
		t.Errorf("context error surfaced as structured rejection %v", se)
	}
	if n := len(s.memo); n != 0 {
		t.Errorf("cancelled submission left %d memo entries", n)
	}
	// The same service recovers once the context does.
	o, err := s.Process(context.Background(), testReq(testSrc), gap.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if o.MemoHit {
		t.Error("memo hit after a run that never completed")
	}
}

// TestMemoKeyMatchesCacheFormat pins the worked example of
// docs/CACHE_FORMAT.md: examples/submit/saxpy.kernel at the default
// machines and versions. Persisted responses are addressed by this exact
// string, so its derivation must never drift. A fingerprint below 2^60
// must still render as 16 hex digits.
func TestMemoKeyMatchesCacheFormat(t *testing.T) {
	const want = "ninjagap-submit/v1|15b7286d82d8416c494d2fa90b64d8d33e826912a9a2d8f5d4e249469d11b37f" +
		"|m=Core2Quad:8f36c6c83c658594,NehalemI7:488015dd279b6d87,WestmereX980:0776e8ddb14ba579," +
		"KnightsFerry:a5b36ff7feaef6f8,FutureWide:8f3ab424a412d727" +
		"|v=naive,autovec,pragma|ninjagap-cell/v4"
	src, err := os.ReadFile("../../examples/submit/saxpy.kernel")
	if err != nil {
		t.Fatal(err)
	}
	canonical, k, err := lang.Normalize(string(src))
	if err != nil {
		t.Fatal(err)
	}
	machines, err := resolveMachines(nil)
	if err != nil {
		t.Fatal(err)
	}
	versions, err := resolveVersions(nil)
	if err != nil {
		t.Fatal(err)
	}
	b := kernels.FromKernel(k, canonical)
	if got := memoKey(b, machines, versions); got != want {
		t.Errorf("submit memo key\n got %s\nwant %s", got, want)
	}

	m := machine.WestmereX980()
	for m.Fingerprint()>>60 != 0 {
		m.FreqGHz += 0.001
	}
	seg := fmt.Sprintf("|m=%s:%016x|", m.Name, m.Fingerprint())
	if got := memoKey(b, []*machine.Machine{m}, versions); !strings.Contains(got, seg) {
		t.Errorf("submit memo key %s lacks %s", got, seg)
	}
}

// TestProcessCompileErrorEverySubmission checks that a kernel the
// compiler rejects is refused on every submission: rejections are never
// memoized, so the lookup that precedes compilation cannot answer one.
func TestProcessCompileErrorEverySubmission(t *testing.T) {
	resetCaches(t)
	s := NewService(Limits{})
	src := `kernel k(f32 restrict x[256], f32 restrict y[256]) {
    for (i = 0; i < 256; i++) {
        y[i] = z;
    }
}`
	for i := 0; i < 2; i++ {
		_, err := s.Process(context.Background(), testReq(src), gap.Config{})
		var se *Error
		if !errors.As(err, &se) || se.Code != CodeCompile || se.HTTPStatus() != http.StatusUnprocessableEntity {
			t.Errorf("submission %d: error %v, want 422 %s", i+1, err, CodeCompile)
		}
	}
	if n := len(s.memo); n != 0 {
		t.Errorf("compile errors left %d memo entries", n)
	}
}

// deadlinePassed reports a passed deadline from Err while its Done
// channel never closes: a request whose deadline expires after its cells
// have run, with no timer to race.
type deadlinePassed struct{ context.Context }

func (deadlinePassed) Err() error { return context.DeadlineExceeded }

// TestProcessExecErrorAfterDeadline checks that a submission gets one
// status. A kernel that reads out of range is a CodeExec rejection even
// when the error arrives after the request's deadline, as its memoized
// repeat is; a run the deadline really stops is still a context error,
// which the HTTP layer answers 504.
func TestProcessExecErrorAfterDeadline(t *testing.T) {
	resetCaches(t)
	s := NewService(Limits{})
	src := `kernel oob(f32 restrict x[64], f32 restrict y[64]) {
    for (i = 0; i < 64; i++) {
        y[i] = x[i + 8];
    }
}`
	for i := 0; i < 2; i++ {
		_, err := s.Process(deadlinePassed{context.Background()}, testReq(src), gap.Config{})
		var se *Error
		if !errors.As(err, &se) || se.Code != CodeExec || se.HTTPStatus() != http.StatusUnprocessableEntity {
			t.Errorf("submission %d: error %v, want 422 %s", i+1, err, CodeExec)
		}
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := s.Process(ctx, testReq(src), gap.Config{})
	var se *Error
	if !errors.Is(err, context.DeadlineExceeded) || errors.As(err, &se) {
		t.Errorf("submission past its deadline: error %v, want a context.DeadlineExceeded", err)
	}
}
